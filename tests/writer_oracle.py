"""The per-cell table writer, the referee of lie_algebra._table_from_masks.

It writes the same table from the sign rule in the basis v_a = W_a v
itself, with no change of basis.  Here W_a = sigma_a J_(M_a) are basis
words, v is a unit vector on which each word of an involution system
acts by its eigensign, so J_P v = span[P] v for every mask P of the span
S of the system masks, and key(M) is the member of the coset of M that
holds no pivot bit (lie_algebra._coset_key).  For a generator J_k:

    J_k W_a v = sigma_a mul_sign(k, M_a) J_L v,    L = {k} xor M_a.

Let b be the word with key(M_b) = key(L) = key(k) xor key(M_a), and
P = L xor M_b, which lies in S.  As J_(M_b) J_P = mul_sign(M_b, P) J_L,

    J_L v = mul_sign(M_b, P) span[P] J_(M_b) v = mul_sign(M_b, P) span[P] sigma_b v_b.

So J_k v_a = c v_b with c = sigma_a sigma_b span[P] (-1)^(|f(k) & M_a|
+ |f(M_b) & P|), f = words.sign_form, since mul_sign(A, B) is -1 to the
power |f(A) & B|.  As <J_k x, y> = <z_k, [x, y]> and <z_k, z_k> = eps_k,
the cell (a, b) is (k, eps_k c norm_sign(W_b)), and J_k puts nothing
else in row a.  Each cell builds P, reads its sign and looks up f(M_b).
"""

from conftest import norm_sign
from htype.clifford_rep import ConstructionError, minimal_admissible_dimension
from htype.lie_algebra import StructureTable, _coset_key, _pivot_rows
from htype.words import letter_mask, sign_form, span_products


def table_from_words(sig, system, words, label=""):
    """The table in the basis v_a = W_a v, each cell from the identity
    above.

    ConstructionError is raised when the cosets of the system's span are
    not as many as the minimal admissible dimension, or when the words
    miss or repeat a coset; norm_sign raises ValueError for a letter
    outside 1..n.
    """
    span = span_products(sig, system)
    dim = 2 ** sig.n // len(span)
    expected = minimal_admissible_dimension(sig.r, sig.s)
    if dim != expected:
        raise ConstructionError(
            "coset count %d does not match minimal dimension %d" % (dim, expected))
    rows = _pivot_rows(system)
    masks = [letter_mask(w.letters) for w in words]
    keys = [_coset_key(rows, m) for m in masks]
    if not len(set(keys)) == len(words) == dim:
        raise ConstructionError(
            "the basis words miss or repeat a coset of the involution system")
    # Each sign factor of a cell as a parity: 1 where it is -1.
    neg = {p: c < 0 for p, c in span.items()}
    # b, M_b, f(M_b) and sigma_b norm_sign(W_b), by the key of word b.
    where = {key: (b, m, sign_form(sig, m), w.sign * norm_sign(sig, w) < 0)
             for b, (key, m, w) in enumerate(zip(keys, masks, words), 1)}
    a_side = [(a, m, key, w.sign < 0)
              for a, (key, m, w) in enumerate(zip(keys, masks, words), 1)]
    cells = {}
    for k in range(1, sig.n + 1):
        bit = 1 << k
        f_k, key_k, eps_k = sign_form(sig, bit), _coset_key(rows, bit), sig.eps(k)
        values = ((k, eps_k), (k, -eps_k))
        for a, m_a, key_a, neg_a in a_side:
            b, m_b, f_b, neg_b = where[key_a ^ key_k]
            p = bit ^ m_a ^ m_b
            cells[(a, b)] = values[
                ((f_k & m_a) ^ (f_b & p)).bit_count() & 1 ^ neg_a ^ neg_b ^ neg[p]]
    return StructureTable(sig, dim, cells, frozenset(), label)
