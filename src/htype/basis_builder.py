"""Reference basis data.

For each signature with a published table there is a ReferenceConfig
recording the involution system, the words W_a whose action on the
system's common eigenvector v gives the orthogonal module basis
v_a = W_a v, and any extra relations the source states, each a word
expected to fix v.  The first basis word is the empty one, so v_1 = v.
lie_algebra.generate_table writes the table in this basis; it needs the
words to hit each coset of letter masks modulo the span of the system
once, which also makes every pairing <W_a v, W_b v> with a != b vanish.
"""

from collections import namedtuple

from .words import Involution, Record, Word


def _w(sign, *letters):
    return Word(sign, letters)


def _p(*letters):
    return Involution(Word(1, letters), 1)


class ReferenceConfig(Record, namedtuple("ReferenceConfig", "involutions basis_words relations",
                                         defaults=((), (), ()))):
    __slots__ = ()


_CONFIGS = {
    (1, 0): ReferenceConfig(
        basis_words=(_w(1), _w(1, 1)),
    ),
    (2, 0): ReferenceConfig(
        basis_words=(_w(1), _w(-1, 1, 2), _w(1, 1), _w(1, 2)),
    ),
    (1, 1): ReferenceConfig(
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1), _w(1, 2)),
    ),
    (3, 0): ReferenceConfig(
        involutions=(_p(1, 2, 3),),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3)),
    ),
    (2, 1): ReferenceConfig(
        basis_words=(_w(1), _w(-1, 1, 2), _w(1, 1, 3), _w(1, 2, 3),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 1, 2, 3)),
    ),
    (1, 2): ReferenceConfig(
        involutions=(_p(1, 2, 3),),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3)),
    ),
    (0, 3): ReferenceConfig(
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 2, 3),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 1, 2, 3)),
    ),
    (4, 0): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4),),
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4)),
    ),
    (3, 1): ReferenceConfig(
        involutions=(_p(1, 2, 3),),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(-1, 1, 4), _w(-1, 2, 4), _w(-1, 3, 4)),
    ),
    (2, 2): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4),),
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4)),
    ),
    (1, 3): ReferenceConfig(
        involutions=(_p(1, 2, 3),),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(-1, 1, 4), _w(-1, 2, 4), _w(-1, 3, 4)),
    ),
    (0, 4): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4),),
        basis_words=(_w(1), _w(-1, 1, 2), _w(-1, 1, 3), _w(-1, 1, 4),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4)),
    ),
    (5, 0): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5)),
        basis_words=(_w(1), _w(1, 5), _w(1, 1, 3), _w(1, 1, 4),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4)),
    ),
    (4, 1): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4),),
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 1, 2, 5), _w(1, 1, 3, 5), _w(1, 1, 4, 5),
                     _w(-1, 1, 5), _w(-1, 2, 5), _w(-1, 3, 5), _w(-1, 4, 5)),
    ),
    (3, 2): ReferenceConfig(
        involutions=(_p(2, 3, 4, 5), _p(1, 2, 3)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(-1, 2, 4), _w(-1, 3, 4)),
    ),
    (2, 3): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 4, 5)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(-1, 2, 4), _w(-1, 3, 4)),
    ),
    (1, 4): ReferenceConfig(
        involutions=(_p(2, 3, 4, 5), _p(1, 2, 3)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(-1, 2, 4), _w(-1, 3, 4)),
    ),
    (0, 5): ReferenceConfig(
        involutions=(_p(2, 3, 4, 5),),
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4), _w(1, 1, 5),
                     _w(1, 2, 5), _w(1, 3, 5), _w(1, 4, 5),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(1, 1, 2, 5), _w(1, 1, 3, 5), _w(1, 1, 4, 5)),
    ),
    (6, 0): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6), _p(1, 4, 5)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 6), _w(1, 1, 2)),
        relations=(_w(1, 1, 3, 6), _w(-1, 2, 3, 5), _w(1, 2, 4, 6)),
    ),
    (5, 1): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(1, 1, 3), _w(1, 1, 4),
                     _w(1, 6), _w(1, 1, 6), _w(1, 2, 6), _w(1, 3, 6),
                     _w(1, 4, 6), _w(1, 5, 6), _w(1, 1, 3, 6), _w(1, 1, 4, 6)),
        relations=(_w(1, 1, 2, 5),),
    ),
    (4, 2): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4),
                     _w(1, 5), _w(1, 6), _w(1, 1, 5), _w(1, 1, 6),
                     _w(1, 3, 5), _w(1, 3, 6), _w(1, 1, 3, 5), _w(1, 2, 3, 5)),
        relations=(_w(-1, 3, 4, 5, 6),),
    ),
    (3, 3): ReferenceConfig(
        involutions=(_p(1, 2, 4, 5), _p(2, 3, 5, 6), _p(1, 2, 3)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 6), _w(1, 1, 4)),
        relations=(_w(-1, 1, 5, 6), _w(-1, 3, 4, 5), _w(-1, 2, 4, 6),
                   _w(-1, 1, 3, 4, 6)),
    ),
    (2, 4): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6), _p(1, 3, 5)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 1, 2),
                     _w(1, 3), _w(1, 4), _w(1, 5), _w(1, 6)),
        relations=(_w(-1, 2, 4, 5), _w(-1, 1, 4, 6), _w(-1, 2, 3, 6)),
    ),
    (1, 5): ReferenceConfig(
        involutions=(_p(2, 3, 4, 5), _p(1, 2, 3)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2, 6), _w(1, 3, 6), _w(1, 4, 6),
                     _w(1, 5, 6), _w(1, 2, 4), _w(1, 2, 5),
                     _w(1, 6), _w(1, 1, 6), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 2, 4, 6), _w(1, 2, 5, 6)),
        relations=(_w(-1, 1, 4, 5),),
    ),
    (0, 6): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6)),
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4),
                     _w(1, 1, 5), _w(1, 1, 6), _w(1, 3, 5), _w(1, 3, 6),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(1, 6), _w(1, 1, 3, 5), _w(1, 1, 3, 6)),
        relations=(_w(-1, 3, 4, 5, 6),),
    ),
    (7, 0): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6), _p(1, 3, 5, 7), _p(5, 6, 7)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 6), _w(1, 7)),
        relations=(_w(-1, 1, 2, 7), _w(1, 1, 3, 6), _w(1, 1, 4, 5),
                   _w(-1, 2, 3, 5), _w(1, 2, 4, 6), _w(1, 3, 4, 7)),
    ),
    (3, 4): ReferenceConfig(
        involutions=(_p(1, 2, 4, 5), _p(1, 2, 6, 7), _p(1, 3, 5, 7), _p(1, 2, 3)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 6), _w(1, 7)),
        relations=(_w(-1, 1, 4, 7), _w(-1, 1, 5, 6), _w(-1, 2, 4, 6),
                   _w(1, 2, 5, 7), _w(-1, 3, 4, 5), _w(-1, 3, 6, 7)),
    ),
    (8, 0): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6), _p(2, 3, 5, 7), _p(1, 2, 7, 8)),
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4), _w(1, 1, 5),
                     _w(1, 1, 6), _w(1, 1, 7), _w(1, 1, 8),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(1, 6), _w(1, 7), _w(1, 8)),
        relations=(_w(-1, 1, 3, 5, 8), _w(-1, 1, 3, 6, 7), _w(-1, 1, 4, 5, 7),
                   _w(1, 1, 4, 6, 8)),
    ),
    (7, 1): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6), _p(1, 3, 5, 7), _p(5, 6, 7)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 6), _w(1, 7),
                     _w(1, 8), _w(-1, 1, 8), _w(-1, 2, 8), _w(-1, 3, 8),
                     _w(-1, 4, 8), _w(-1, 5, 8), _w(-1, 6, 8), _w(-1, 7, 8)),
        relations=(_w(-1, 1, 2, 7), _w(1, 1, 3, 6), _w(1, 1, 4, 5),
                   _w(-1, 2, 3, 5), _w(1, 2, 4, 6), _w(1, 3, 4, 7)),
    ),
    (4, 4): ReferenceConfig(
        involutions=(_p(1, 2, 3, 4), _p(1, 2, 5, 6), _p(2, 3, 5, 7), _p(1, 2, 7, 8)),
        basis_words=(_w(1), _w(1, 1, 2), _w(1, 1, 3), _w(1, 1, 4), _w(1, 1, 5),
                     _w(1, 1, 6), _w(1, 1, 7), _w(1, 1, 8),
                     _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4), _w(1, 5),
                     _w(1, 6), _w(1, 7), _w(1, 8)),
        relations=(_w(1, 1, 3, 5, 8), _w(1, 1, 3, 6, 7), _w(-1, 1, 4, 5, 7),
                   _w(1, 1, 4, 6, 8)),
    ),
    (3, 5): ReferenceConfig(
        involutions=(_p(1, 2, 4, 5), _p(1, 2, 6, 7), _p(1, 3, 5, 7), _p(1, 2, 3)),
        basis_words=(_w(1), _w(1, 1), _w(1, 2), _w(1, 3), _w(1, 4),
                     _w(1, 5), _w(1, 6), _w(1, 7),
                     _w(1, 8), _w(-1, 1, 8), _w(-1, 2, 8), _w(-1, 3, 8),
                     _w(-1, 4, 8), _w(-1, 5, 8), _w(-1, 6, 8), _w(-1, 7, 8)),
        relations=(_w(1, 2, 5, 7), _w(-1, 3, 4, 5), _w(-1, 3, 6, 7),
                   _w(-1, 1, 4, 7), _w(-1, 1, 5, 6), _w(-1, 2, 4, 6)),
    ),
}

# Signatures whose module data and reference table coincide with an
# already listed one.
ALIASES = {(0, 1): (1, 0), (0, 2): (2, 0), (0, 8): (8, 0)}


def reference_config(sig):
    key = (sig.r, sig.s)
    key = ALIASES.get(key, key)
    try:
        return _CONFIGS[key]
    except KeyError:
        raise KeyError("no reference basis data for %s" % sig) from None


def has_reference_config(sig):
    key = (sig.r, sig.s)
    return key in _CONFIGS or key in ALIASES


def configured_signatures():
    """Every signature with stored basis data, aliases included."""
    return sorted(set(_CONFIGS) | set(ALIASES))
