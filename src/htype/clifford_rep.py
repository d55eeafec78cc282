"""The Clifford modules behind the tables: their size, the involution
search, and generators that act with words.

A table's module realises the Clifford relations
J_i J_j + J_j J_i = -2 <z_i, z_j> Id in the minimal admissible
dimension.  It is fixed by a system of k commuting involution words with
independent letter sets, declared to act by their eigensigns on a
vector v; the vectors J_R v, R one member of each coset of letter masks
modulo the span of the system, form its basis, so the coset count
2^(n-k) must be that dimension.  involution_count gives k, and find_involution_system
searches a system; lie_algebra writes the table of such a module
straight from the sign rule of the words module, without building it.

A GeneratorSet holds a module's generators as signed-point maps (see
exactlin) and acts with words on signed points.

The minimal dimensions follow from the classification of the real
Clifford algebras Cl(r, s) by Bott periodicity (Lawson-Michelsohn, Spin
Geometry, ch. I sec. 4): the kind, R, C, H or a sum R2, H2 of two
copies, depends only on (r - s) mod 8, and whether the minimal
admissible module doubles the irreducible one only on (r - s) mod 8 and
s mod 4, since Cl(4,4) = R(16).
"""

from collections import namedtuple
from math import isqrt

from . import exactlin
from .words import Involution, Record, Word


class ConstructionError(Exception):
    pass


# Kind K of Cl(r, s) by (r - s) mod 8, and the real dimension of K(1);
# K(m) has m^2 times that.
_KINDS = ("R", "C", "H", "H2", "H", "C", "R", "R2")
_ALGEBRA_DIM = {"R": 1, "R2": 2, "C": 2, "H": 4, "H2": 8}

# "1" where the minimal admissible module doubles the irreducible one;
# rows by (r - s) mod 8, columns by s mod 4.
_DOUBLED = ("0110", "0100", "0000", "0101", "0000", "0001", "0011", "0111")


class CliffordType(Record, namedtuple("CliffordType", "kind size doubled")):
    __slots__ = ()

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
    determined by the minimal admissible dimension.  Nothing here can
    fail: algdim size^2 = 2^n with algdim in {1, 2, 4, 8} makes size, and
    so the dimension, a power of two, and on the 80 signatures that
    clifford_type accepts, the grid tests find k in 0..n.
    """
    dim = minimal_admissible_dimension(sig.r, sig.s)
    return sig.n - dim.bit_length() + 1


def _letters(mask):
    """The letters of a mask, increasing."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def _candidates(sig):
    """The letter masks of find_involution_system's candidates in tuple
    order, with containing[x], the bitset of the candidates that hold the
    letter x, and odd, the bitset of the 3-letter candidates; bit i of a
    bitset stands for masks[i].

    A candidate is a 3- or 4-letter set with an even number of letters
    above r.  Tuple order is lexicographic order on the increasing letter
    tuples (Knuth, TAOCP 4A, sec. 7.2.1.3), a 3-set coming just before
    its extensions.  So the candidates whose two least letters are a < b
    form one contiguous run, and the runs come in lexicographic order of
    (a, b): each run is {a, b} + t for t in tails[b][p], the tails above
    b in tuple order whose count above r has the parity p of {a, b}'s.
    A tail is (c,) or (c, y) with b < c < y, and tails[b] is block(c)
    for c = b + 1, followed by tails[c].  The parity rule fixes each
    block: (c,) is kept when its count above r is p, and then its
    extensions are (c, y) for y in c+1..r, which leave the count as it
    is; otherwise they are (c, y) for y in max(c, r)+1..n.  So every
    tail list is built from the next one by one concatenation per
    parity, and the list of candidates by one extend per pair (a, b)
    with b < n: n - 2 and C(n - 1, 2) loop turns, 13 and 91 at (8,7),
    against 917 candidates.

    The candidates are masks, not letter tuples: a search tries only a
    few of them (11 of 917 at (8,7)), and a tuple per candidate, kept
    until the search returns, is enough container objects to set off a
    garbage collection in every search at the top of the grid.  The
    tail lists are about 2n containers whatever the candidate count, and
    they go when the call returns.
    The bitsets are read off all the masks at once, by transposing them.
    Each mask becomes width = (n >> 3) + 1 bytes, enough for masks below
    2^(n+1), in little-endian order by the explicit argument, so byte
    x >> 3 of a mask holds its bit x whatever the host's byte order.
    Byte lane x >> 3, taken with stride width, holds that byte of every
    mask in order; translate maps each byte to b"1" when its bit x & 7
    is set and to b"0" otherwise, and the string reversed, so that
    candidate 0 comes last, is containing[x] in base 2 (empty, read as
    0, when n < 3 leaves no candidate).  And odd is the XOR of
    containing[1..n]: a candidate holds 3 or 4 letters, so it holds 3
    exactly when an odd number of the letter bitsets hold it.
    """
    n, r = sig.n, sig.r
    bit = [1 << x for x in range(n + 1)]
    # tails[b][p]: the tails above b whose count above r has parity p.
    tails = [None] * n + [([], [])]
    for c in range(n, 2, -1):
        kept = [bit[c]]
        kept += map(bit[c].__or__, bit[c + 1:r + 1])
        other = list(map(bit[c].__or__, bit[max(c, r) + 1:]))
        t0, t1 = tails[c]
        tails[c - 1] = (other + t0, kept + t1) if c > r else (kept + t0, other + t1)
    masks = []
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            masks += map((bit[a] | bit[b]).__or__, tails[b][(a > r) ^ (b > r)])
    count, width = len(masks), (n >> 3) + 1
    packed = b"".join(map(int.to_bytes, masks, [width] * count, ["little"] * count))
    containing, odd = [0], 0
    for x in range(1, n + 1):
        half = 1 << (x & 7)
        bit_set = (b"0" * half + b"1" * half) * (128 >> (x & 7))
        containing.append(int(packed[x >> 3::width].translate(bit_set)[::-1] or b"0", 2))
        odd ^= containing[x]
    return masks, containing, odd


def find_involution_system(sig, k=None):
    """Deterministic search for k commuting independent involution words.

    Candidates are the length 3 and 4 letter sets with an even number of
    letters above r, so their eps product is +1 and the word squares to
    +1, scanned in tuple order with backtracking (see _candidates, which
    emits them in that order from the parity rule alone).  All
    eigensigns are +1.  The first system found is returned, so the
    result is stable.  A size k < 0 has no system and raises before any
    candidate is built.

    The search runs on bitsets over the candidate list.  Words on the
    letter sets A and B commute exactly when
    omega(A, B) = |A||B| + |A & B| is even, and omega is bilinear over
    GF(2) in the indicator vectors of A and B.  So the candidates that
    anticommute with A form one bitset: the XOR over the letters x of A
    of containing[x], the candidates holding x, XOR odd, the 3-letter
    candidates, when |A| is odd.  The search builds it the first time it
    tries a candidate and keeps it for later tries; most candidates are
    never tried.  Each node carries a pool, the later candidates that
    commute with every chosen word (one AND per choice), each with a key
    for its coset modulo the GF(2) span of the chosen masks; the root's
    keys are the masks.  Choosing key K, with lowest bit h, maps each
    key k to k ^ K if k & h, else k: a linear map whose kernel is the
    span with the new mask added.  A member whose new key an earlier one
    has leaves: a later coset-mate q of p has J_q = +-J_p J_x, x in the
    span, so every pool word commutes with J_p exactly when with J_q,
    and p in place of q gives a system that sorts earlier.  As keys stay
    distinct, none turns 0, so no member lies in the span.  So the
    search meets the plain scan's first system, or exhausts when it
    does.  A pool smaller than the words still missing has no
    completion, as pools only shrink down the tree, so the walk stops
    there and the choice gets no frame: such a try costs one AND and one
    popcount, builds no keys and leaves the chosen words as they were.

    A candidate is only its index and its mask: its size is the mask's
    bit_count and its largest letter bit_length - 1.  Its letter tuple
    is built only when it is tried, to XOR its letters' bitsets, and for
    the words returned.

    A frame tries only the least member of each orbit of the group G of
    letter permutations that fix every letter <= top, the largest
    letter of any chosen word, and keep the split at r, so that they map
    (top, r] and (max(top, r), n] onto themselves.  A sigma in G maps
    candidates to candidates and keeps commutation and GF(2)
    independence, as these read only the sizes of letter sets and of
    their meets.  It fixes the chosen words, and it keeps a candidate on
    its side of the last chosen word c in tuple order, since the letters
    of c are <= top and sigma keeps the letters above top above it.  So
    let S be the plain scan's first system and w its word after the
    chosen ones.  If a candidate u = sigma(w) came before w, sigma(S)
    would be a system that holds the chosen words and u, with its other
    words after c, and it would sort before S.  Hence w is the least of
    its orbit, and skipping every other member drops no subtree that
    holds S, whether or not the least member was tried, and the first
    system and every error text stay those of the plain scan.  The
    least member of an orbit holds an unbroken run of letters from the
    bottom of each block, (top, r] and (max(top, r), n]; the members
    to skip hold a letter x but not x - 1 with both in one block above
    top, which two bitsets of run, built once from containing, give.
    At (6,7) this cuts the walk from 941 tries and 233 frames to 9
    tries and 7 frames: below (1,2,3), (1,2,4,5), where top is 5, 208
    frames tried the words (1,2,x,y) with 7 <= x < y, each the same
    failure up to a permutation of the letters 7..13, and now (1,2,7,8)
    alone is tried.  This is isomorph rejection as in McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26 (1998).
    """
    if k is None:
        k = involution_count(sig)
    if k < 0:
        raise ConstructionError("no involution system of size %d for %s" % (k, sig))
    if k == 0:
        return []
    n, r = sig.n, sig.r
    masks, containing, odd = _candidates(sig)
    # run[x]: the candidates that hold a letter y but not y - 1, for some
    # y in x..r when x <= r, in x..n when x > r + 1; run[r + 1] is 0.
    # A frame skips run[top + 2] | run[max(top, r) + 2], the candidates
    # that are not the least of their orbit.
    run = [0] * (n + 3)
    for x in range(n, 1, -1):
        if x != r + 1:
            run[x] = containing[x] & ~containing[x - 1] | run[x + 1]
    # anti[idx], once masks[idx] has been tried: the candidates whose
    # words anticommute with its word.
    anti = [None] * len(masks)
    # One frame per live node on the path: the orbit-least pool members
    # it has yet to try, its pool, the keys of its pool and top;
    # chosen[d] led from frame d to frame d + 1.
    pool = (1 << len(masks)) - 1
    frames = [[pool & ~(run[2] | run[r + 2]), pool, masks, 0]]
    chosen = []
    while frames:
        frame = frames[-1]
        todo, pool, keys, top = frame
        if not todo:
            frames.pop()
            if chosen:
                chosen.pop()
            continue
        low = todo & -todo
        frame[0] = todo ^ low
        idx = low.bit_length() - 1
        missing = k - len(chosen) - 1
        if not missing:
            return [Involution(Word(1, _letters(masks[j])), 1) for j in chosen + [idx]]
        against = anti[idx]
        if against is None:
            m = masks[idx]
            against = odd if m.bit_count() == 3 else 0
            for x in _letters(m):
                against ^= containing[x]
            anti[idx] = against
        pool = bits = pool & -(low << 1) & ~against
        size = pool.bit_count()
        if size < missing:
            continue
        key = keys[idx]
        pivot = key & -key
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
        if size >= missing:
            chosen.append(idx)
            top = max(top, masks[idx].bit_length() - 1)
            skip = run[top + 2] | run[max(top, r) + 2]
            frames.append([pool & ~skip, pool, child, top])
    raise ConstructionError("no involution system of size %d for %s" % (k, sig))


class GeneratorSet(Record, namedtuple("GeneratorSet", "sig dim ops form_v")):
    """Generators J_1 ... J_n on a module with a diagonal +-1 form.

    sig is the signature (r, s), dim the module dimension, ops[i - 1]
    is J_i as a signed-point map (see exactlin) and form_v[a] is the
    form's sign on basis vector e_a.  apply_word alone hands out an
    operator in another shape, the lists (perm, signs) with e_p going
    to signs[p] e_perm[p].
    """

    __slots__ = ()

    def apply_word(self, w):
        """The word w in these generators, as the lists (perm, signs):
        the image of every point under act_word, or None when some point
        has no image, as act_word gives for a partial map."""
        images = [self.act_word(w, (p, 1)) for p in range(self.dim)]
        if None in images:
            return None
        return [q for q, _ in images], [s for _, s in images]

    def act_word(self, w, v):
        """Image of the signed point v under the word w, letter by letter,
        or None as soon as a letter's map does not act on the point."""
        for i in reversed(w.letters):
            v = exactlin.act(self.ops[i - 1], v)
            if v is None:
                return None
        return v if w.sign == 1 else (v[0], -v[1])

