"""Clifford module generators as exact signed permutations.

The entry point is build_generators, which realises the Clifford
relations J_i J_j + J_j J_i = -2 <z_i, z_j> Id on a module of the
minimal admissible dimension.  The construction is combinatorial: fix a
system of k commuting involution words with independent letter sets,
declare them to act as +1 on a vector v, and take as module basis the
vectors e_a = J_(R_a) v, one per coset of letter masks modulo the span
of the system, R_a its smallest member.  Every word maps v to a signed
point, J_L v = sign * e_a for the coset a of its mask L, with the sign
from the one sign rule of the words module.  J_i e_a = J_i J_(R_a) v is
read off that signed-point map, and the diagonal form with entries
eta(W) = prod eps over the representative letters makes every J_i skew.
verify_generators is the one check of the module axioms, here and for
the operators lie_algebra.verify_htype rebuilds from a table.  Each
operator is a signed-point map (see exactlin).

The minimal dimensions follow from the classification of the real
Clifford algebras Cl(r, s) by Bott periodicity (Lawson-Michelsohn, Spin
Geometry, ch. I sec. 4): the kind, R, C, H or a sum R2, H2 of two
copies, depends only on (r - s) mod 8, and whether the minimal
admissible module doubles the irreducible one only on (r - s) mod 8 and
s mod 4, since Cl(4,4) = R(16).
"""

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from . import exactlin
from .words import (
    Involution,
    Signature,
    Word,
    letter_mask,
    mul_sign,
    sign_form,
    span_products,
)


class ConstructionError(Exception):
    pass


# Kind K of Cl(r, s) by (r - s) mod 8, and the real dimension of K(1);
# K(m) has m^2 times that.
_KINDS = ("R", "C", "H", "H2", "H", "C", "R", "R2")
_ALGEBRA_DIM = {"R": 1, "R2": 2, "C": 2, "H": 4, "H2": 8}

# "1" where the minimal admissible module doubles the irreducible one;
# rows by (r - s) mod 8, columns by s mod 4.
_DOUBLED = ("0110", "0100", "0000", "0101", "0000", "0001", "0011", "0111")


@dataclass(frozen=True)
class CliffordType:
    kind: str
    size: int
    doubled: bool

    @property
    def label(self):
        base = self.kind if self.size == 1 else "%s(%d)" % (self.kind, self.size)
        return base + ("*" if self.doubled else "")


def clifford_type(r, s):
    if not (0 <= r <= 8 and 0 <= s <= 8):
        raise ValueError("grid covers 0 <= r, s <= 8")
    kind = _KINDS[(r - s) % 8]
    size = isqrt(2 ** (r + s) // _ALGEBRA_DIM[kind])
    return CliffordType(kind, size, _DOUBLED[(r - s) % 8][s % 4] == "1")


def minimal_admissible_dimension(r, s):
    """Real dimension of the smallest module carrying an admissible form.

    K(m) of real dimension D acts irreducibly on its columns, of real
    dimension D / m; a sum K(m) + K(m) acts on the columns of one copy.
    """
    t = clifford_type(r, s)
    dim = 2 ** (r + s) // t.size
    if t.kind in ("R2", "H2"):
        dim //= 2
    if t.doubled:
        dim *= 2
    return dim


def involution_count(sig):
    """Number of independent involutions cutting the module down to size.

    The coset module over k involutions has dimension 2^(n-k), so k is
    determined by the minimal admissible dimension.
    """
    dim = minimal_admissible_dimension(sig.r, sig.s)
    if dim & (dim - 1):
        raise ConstructionError("minimal dimension %d is not a power of two" % dim)
    k = sig.n - dim.bit_length() + 1
    if k < 0:
        raise ConstructionError("grid dimension too large for %s" % sig)
    return k


def _candidates(sig):
    """The candidates of find_involution_system in tuple order, their
    masks, and anti[idx], the bitset of the candidates whose words
    anticommute with that of cands[idx]."""
    n = sig.n
    cands, masks, containing, odd = [], [], [0] * (n + 1), 0
    for t in combinations(range(1, n + 1), 3):
        m = letter_mask(t)
        # In tuple order t comes first, then each t + (y,).
        for c, mask in [(t, m)] + [(t + (y,), m | 1 << y)
                                   for y in range(t[2] + 1, n + 1)]:
            if not (mask >> sig.r + 1).bit_count() & 1:
                bit = 1 << len(cands)
                for x in c:
                    containing[x] |= bit
                if len(c) == 3:
                    odd |= bit
                cands.append(c)
                masks.append(mask)
    anti = []
    for c in cands:
        bits = odd if len(c) == 3 else 0
        for x in c:
            bits ^= containing[x]
        anti.append(bits)
    return cands, masks, anti


def find_involution_system(sig, k=None):
    """Deterministic search for k commuting independent involution words.

    Candidates are the length 3 and 4 letter sets with an even number of
    letters above r, so their eps product is +1 and the word squares to
    +1, scanned in tuple order with backtracking.  All eigensigns are
    +1.  The first system found is returned, so the result is stable.

    The search runs on bitsets over the candidate list.  Words on the
    letter sets A and B commute exactly when
    omega(A, B) = |A||B| + |A & B| is even, and omega is bilinear over
    GF(2) in the indicator vectors of A and B.  So the candidates that
    anticommute with A form one bitset, built up front: the XOR over the
    letters x of A of the candidates containing x, XOR the odd-size
    candidates when |A| is odd.  Each node carries a pool, the later
    candidates that commute with every chosen word (one AND per
    choice), each with a key for its coset modulo the GF(2) span of the
    chosen masks; the root's keys are the masks.  Choosing key K, with
    lowest bit h, maps each key k to k ^ K if k & h, else k: a linear
    map whose kernel is the span with the new mask added.  A member
    whose new key an earlier one has leaves: a later coset-mate q of p
    has J_q = +-J_p J_x, x in the span, so every pool word commutes with
    J_p exactly when with J_q, and p in place of q gives a system that
    sorts earlier.  As keys stay distinct, none turns 0, so no member
    lies in the span.  So the search meets the plain scan's first
    system, or exhausts when it does.  A pool smaller than the words
    still missing has no completion, as pools only shrink down the tree,
    so the walk stops there and the choice gets no frame.
    """
    if k is None:
        k = involution_count(sig)
    if k == 0:
        return []
    cands, masks, anti = _candidates(sig)
    # One frame per live node on the path: its untried pool and the keys
    # of its pool; chosen[d] led from frame d to frame d + 1.
    frames = [[(1 << len(cands)) - 1, masks]]
    chosen = []
    while frames:
        frame = frames[-1]
        rest, keys = frame
        if not rest:
            frames.pop()
            if chosen:
                chosen.pop()
            continue
        low = rest & -rest
        rest ^= low
        frame[0] = rest
        idx = low.bit_length() - 1
        chosen.append(idx)
        if len(chosen) == k:
            return [Involution(Word(1, cands[idx]), 1) for idx in chosen]
        missing, key = k - len(chosen), keys[idx]
        pivot = key & -key
        pool = bits = rest & ~anti[idx]
        size = pool.bit_count()
        child, seen = {}, set()
        while bits and size >= missing:
            low = bits & -bits
            bits ^= low
            j = low.bit_length() - 1
            x = keys[j]
            x ^= key if x & pivot else 0
            if x in seen:
                pool, size = pool ^ low, size - 1
            else:
                seen.add(x)
                child[j] = x
        if size < missing:
            chosen.pop()
        else:
            frames.append([pool, child])
    raise ConstructionError("no involution system of size %d for %s" % (k, sig))


@dataclass(frozen=True)
class GeneratorSet:
    """Generators J_1 ... J_n on a module with a diagonal +-1 form.

    sig is the signature (r, s), dim the module dimension, ops[i - 1]
    is J_i as a signed-point map (see exactlin) and form_v[a] is the
    form's sign on basis vector e_a.  apply_word alone hands out an
    operator in another shape, the lists (perm, signs) with e_p going
    to signs[p] e_perm[p].
    """

    sig: Signature
    dim: int
    ops: tuple
    form_v: tuple

    def apply_word(self, w):
        """The word w in these generators, as the lists (perm, signs):
        the image of every point under act_word."""
        images = [self.act_word(w, (p, 1)) for p in range(self.dim)]
        return [q for q, _ in images], [s for _, s in images]

    def act_word(self, w, v):
        """Image of the signed point v under the word w, letter by letter."""
        for i in reversed(w.letters):
            v = exactlin.act(self.ops[i - 1], v)
        return v if w.sign == 1 else (v[0], -v[1])


def build_generators(sig, system):
    """Minimal admissible Clifford module for sig, as signed-point maps.

    The result is checked by verify_generators before being returned.
    """
    span = span_products(sig, system)

    # Masks in tuple order of their letters (the empty set, then those
    # with least letter x, then the rest), so the first member met of each
    # coset is its smallest representative R_a; coset[R_a xor P] = (a, P).
    ordered = [0]
    for x in range(sig.n, 0, -1):
        ordered = [0] + [1 << x | m for m in ordered] + ordered[1:]
    reps, coset = [], {}
    for rep in ordered:
        if rep not in coset:
            for p in span:
                coset[rep ^ p] = (len(reps), p)
            reps.append(rep)

    dim = len(reps)
    expected = minimal_admissible_dimension(sig.r, sig.s)
    if dim != expected:
        raise ConstructionError(
            "coset count %d does not match minimal dimension %d" % (dim, expected))

    # J_i e_a = J_i J_(R_a) v = mul_sign(i, R_a) J_L v for L = R_a xor i,
    # and with coset[L] = (b, P), J_L v = mul_sign(R_b, P) span[P] e_b.
    # mul_sign(A, B) is -1 to the power |f(A) & B| for f = sign_form,
    # linear over GF(2).  As R_b = L xor P and f(L) = f(R_a) xor f(i),
    # the sign is -1 to the power |f(i) & R_a| + |(f(R_a) xor f(i)) & P|,
    # times mul_sign(P, P) span[P], which is -1 where neg[P].  The image
    # of e_a sits at index 2b + (sign < 0), that of -e_a at its swap.
    neg = {p: mul_sign(sig, p, p) * c < 0 for p, c in span.items()}
    f_reps = [sign_form(sig, rep) for rep in reps]
    ops = []
    for i in range(1, sig.n + 1):
        bit = 1 << i
        f_i = sign_form(sig, bit)
        images = []
        for rep, f_rep in zip(reps, f_reps):
            b, p = coset[rep ^ bit]
            odd = ((f_i & rep) ^ ((f_rep ^ f_i) & p)).bit_count() & 1
            x = 2 * b + (odd ^ neg[p])
            images += (x, x ^ 1)
        ops.append(tuple(images) + (2 * dim,))

    form_v = tuple((-1) ** (rep >> sig.r + 1).bit_count() for rep in reps)
    problems = verify_generators(sig, ops, form_v)
    if problems:
        raise ConstructionError("; ".join(problems))
    return GeneratorSet(sig, dim, tuple(ops), form_v)


def verify_generators(sig, ops, form):
    """Errata of the module axioms, in order: diag(form) is definite when
    s = 0 and neutral otherwise, each J_k in ops is a signed permutation
    skew for it, and the Clifford relations hold.  As in a table, J_k is
    named z_k and point a - 1 is named v_a."""
    dim, pos = len(form), form.count(1)
    want = (dim, 0) if sig.s == 0 else (dim // 2, dim // 2)
    out = []
    if (pos, dim - pos) != want:
        out.append("solved norms have signature (%d, %d), expected (%d, %d)"
                   % (pos, dim - pos, want[0], want[1]))
    total = [exactlin.is_permutation(m) for m in ops]
    skew = exactlin.skew_flags(ops, form)
    for k, (whole, skewed) in enumerate(zip(total, skew), start=1):
        if not whole:
            out.append("z%d does not act by a signed permutation" % k)
        elif not skewed:
            out.append("z%d is not skew for the solved norms" % k)
    squares = [-sig.eps(k) for k in range(1, sig.n + 1)]
    for i, j, points in exactlin.relation_failures(ops, squares):
        if i == j and total[i]:
            m = ops[i]
            for a in points:
                b = m[2 * a] >> 1  # pi(a), the point J_i e_a lands on
                out.append(
                    "z%d square fails through cells (v%d, v%d) and (v%d, v%d)"
                    % (i + 1, a + 1, b + 1, b + 1, (m[2 * b] >> 1) + 1))
        else:
            out.append("z%d and z%d do not anticommute" % (i + 1, j + 1))
    return out
