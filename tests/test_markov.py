"""The Markov spectrum below 3 as an independent answer key for sup_lambda.

Markov's theorem (Cusick & Flahive, *The Markoff and Lagrange Spectra*,
1989, ch. 1-2): the doubly infinite periodic words over {1, 2} whose sup of
lambda_i lies below 3 are exactly the rotations of the Cohn words, one per
Markov number m, and that sup is sqrt(9m^2 - 4)/m.  A Markov triple
(a, m, b), m the largest, has the Cohn word W_m = W_a W_b; the triple's
children are (a, 3am - b, m) and (m, 3mb - a, b), from the root (1, 5, 2)
with W_1 = 1,1 and W_2 = 2,2.  Nothing here calls lagspec to build the
numbers or the words.

What this oracle cannot catch: two mutations pass it.  A flipped parity in
cfrac._alternating changes no verdict, because every word here is purely
periodic, so each tail agrees with its periodic one and the order call
returns 0.  quadfield._floor_root returning s + 1 shifts brackets by one
unit of 2**-64, which decides no comparison here differently from the exact
fold.
"""

from itertools import product

from lagspec.bisequence import BiSeq, sup_lambda
from lagspec.quadfield import QuadExt


def _markov_tree(generations):
    """{m: Cohn word} for 1, 2 and every Markov number within `generations`
    generations below the root triple (1, 5, 2)."""
    words = {1: (1, 1), 2: (2, 2), 5: (1, 1, 2, 2)}
    level = [(1, 5, 2)]
    for _ in range(generations):
        children = []
        for a, m, b in level:
            left, right = 3 * a * m - b, 3 * m * b - a
            words[left], words[right] = words[a] + words[m], words[m] + words[b]
            children += [(a, left, m), (m, right, b)]
        level = children
    return words


MARKOV = _markov_tree(5)


def test_markov_tree_is_the_known_one():
    assert len(MARKOV) == 65
    assert sorted(MARKOV)[:13] == [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985]
    assert max(MARKOV) == 5_528_778_008_357
    assert max(map(len, MARKOV.values())) == 42
    for m, (a, b) in [(5, (1, 2)), (13, (1, 5)), (29, (5, 2)), (194, (13, 5)), (433, (5, 29))]:
        assert MARKOV[m] == MARKOV[a] + MARKOV[b]
        assert m * m + a * a + b * b == 3 * m * a * b


def test_sup_of_a_cohn_word_is_its_markov_value():
    for m, w in MARKOV.items():
        cert = sup_lambda(BiSeq(w, w, 0, w))
        assert cert.status == "certified" and cert.attained, m
        assert cert.sup == QuadExt(0, 1, m, 9 * m * m - 4), m


def _primitive(w):
    n = len(w)
    return all(w != w[k:] + w[:k] for k in range(1, n) if n % k == 0)


def test_sup_below_3_exactly_for_rotations_of_cohn_words():
    below = set()
    for w in MARKOV.values():
        root = next(w[:k] for k in range(1, len(w) + 1) if w == w[:k] * (len(w) // k))
        below |= {root[k:] + root[:k] for k in range(len(root))}
    words = [w for n in range(1, 11) for w in product((1, 2), repeat=n) if _primitive(w)]
    assert len(words) == 1966
    got = set()
    for w in words:
        cert = sup_lambda(BiSeq(w, w, 0, w))
        assert cert.status == "certified", w
        if cert.sup < 3:
            got.add(w)
    assert got == {w for w in below if len(w) <= 10}
    # m = 1, 2, 5, 13, 29, 34 and 169, then 89, 194, 433 and 985 of length 10
    assert len(got) == 1 + 1 + 4 + 6 + 6 + 8 + 8 + 4 * 10
