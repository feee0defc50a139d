import itertools
import random
from collections import Counter

from tricross import (
    TripleDiagram,
    canonical_diagram_code,
    canonical_form,
    canonical_projection_code,
    enumerate_projections,
    enumerate_raw_shadows,
    parse_spd,
    serialize_spd,
)
from tricross.canon import (
    _MIRROR_KNOT,
    _SAME_KNOT,
    _diagram_from_code,
    _frames,
    _height_word,
)
from tricross.enumeration import HEIGHT_WORDS
from tricross.maps import TripleProjection
from conftest import T2_1, T2_2


def brute_force_isomorphic(p, q, allow_mirror):
    """Independent check: try every crossing relabeling + rotation (+ mirror)."""
    n = p.n
    if q.n != n:
        return False

    def try_maps(reflect):
        for perm in itertools.permutations(range(n)):
            for rots in itertools.product(range(6), repeat=n):
                def phi(d):
                    c, s = d // 6, d % 6
                    s2 = (rots[c] - s) % 6 if reflect else (s + rots[c]) % 6
                    return 6 * perm[c] + s2
                if all(phi(p.alpha[d]) == q.alpha[phi(d)] for d in range(6 * n)):
                    return True
        return False

    return try_maps(False) or (allow_mirror and try_maps(True))


def relabel(p, perm, rots, reflect, heights=None):
    """``p`` with crossing ``c`` renamed ``perm[c]`` and its slots rotated by
    ``rots[c]``, and reflected when ``reflect`` (the maps tried above); given
    the ``heights`` of a diagram on ``p``, the diagram with them carried along."""
    def phi(d):
        c, s = d // 6, d % 6
        s2 = (rots[c] - s) % 6 if reflect else (s + rots[c]) % 6
        return 6 * perm[c] + s2
    alpha = [0] * (6 * p.n)
    for d in range(6 * p.n):
        alpha[phi(d)] = phi(p.alpha[d])
    q = TripleProjection(alpha, p.n)
    if heights is None:
        return q
    # strand j (slots j, j + 3) becomes the strand of the slot phi sends j to
    words = [None] * p.n
    for c, w in enumerate(heights):
        words[perm[c]] = "".join(
            w[(rots[c] - j if reflect else j - rots[c]) % 3] for j in range(3))
    return TripleDiagram(q, words)


def _reference_traces(p, senses):
    """``(sense, code, order, base)`` of the full trace from every root in
    every sense: crossings are numbered as first reached, each from the slot
    it is reached at, and read slot by slot in the sense."""
    for sense in senses:
        for root in range(6 * p.n):
            code, order, base = [], [root // 6], [root % 6]
            i = 0
            while i < len(order):
                for k in range(6):
                    partner = p.alpha[6 * order[i] + (base[i] + sense * k) % 6]
                    crossing, slot = divmod(partner, 6)
                    if crossing not in order:
                        order.append(crossing)
                        base.append(slot)
                    j = order.index(crossing)
                    code.append(6 * j + (sense * (slot - base[j])) % 6)
                i += 1
            yield sense, tuple(code), tuple(order), tuple(base)


def _reference_projection_code(p, fold_mirror):
    senses = (1, -1) if fold_mirror else (1,)
    return min(code for _, code, _, _ in _reference_traces(p, senses))


def _reference_diagram_code(d, fold_mirror):
    """Smallest (trace, height words) over every root and every allowed view."""
    views = _SAME_KNOT + (_MIRROR_KNOT if fold_mirror else ())
    return min(
        (code, tuple(_height_word(d.heights[c], b, sense, reverse_ranks)
                     for c, b in zip(order, base)))
        for view_sense, reverse_ranks in views
        for sense, code, order, base in _reference_traces(d.projection, (view_sense,))
    )


def _check_codes_vs_brute_force(n):
    # the search yields one shadow per class; two seeded random relabellings
    # of each (one of them reflected for the mirror-folded check) give the
    # classes distinct labellings to compare
    rng = random.Random(n)
    shadows = list(enumerate_raw_shadows(n, fold_mirror=False))
    for fold in (False, True):
        groups = {}
        for p in shadows:
            for reflect in (None, False, fold):
                q = p if reflect is None else relabel(
                    p, rng.sample(range(n), n), [rng.randrange(6) for _ in range(n)],
                    reflect)
                groups.setdefault(canonical_projection_code(q, fold), []).append(q)
        # same code -> isomorphic (every member against its representative)
        for members in groups.values():
            for q in members[1:]:
                assert brute_force_isomorphic(members[0], q, allow_mirror=fold)
        # different code -> not isomorphic
        for a, b in itertools.combinations([m[0] for m in groups.values()], 2):
            assert not brute_force_isomorphic(a, b, allow_mirror=fold)


def test_canonical_code_completeness_n2():
    _check_codes_vs_brute_force(2)


def test_canonical_code_completeness_n3():
    _check_codes_vs_brute_force(3)


def test_code_is_relabeling_invariant():
    p = parse_spd(T2_1).projection
    # relabel crossings by swapping 0 and 1 (conjugate alpha by the swap)
    def swap(d):
        return (d + 6) % 12
    alpha = [0] * 12
    for d in range(12):
        alpha[swap(d)] = swap(p.alpha[d])
    q = TripleProjection(alpha, 2)
    assert canonical_projection_code(p, False) == canonical_projection_code(q, False)


def test_mirror_folding_merges_mirror_codes():
    d = parse_spd(T2_1)
    p = d.projection
    mirror_alpha = [0] * (6 * p.n)
    # reflect each crossing: slot s -> (6 - s) % 6
    def refl(d_):
        return 6 * (d_ // 6) + (6 - d_ % 6) % 6
    for d_ in range(6 * p.n):
        mirror_alpha[refl(d_)] = refl(p.alpha[d_])
    m = TripleProjection(mirror_alpha, p.n)
    assert canonical_projection_code(p, True) == canonical_projection_code(m, True)


def test_diagram_code_separates_heights():
    d1 = parse_spd(T2_1)
    d2 = parse_spd(T2_2)
    assert canonical_diagram_code(d1, False) != canonical_diagram_code(d2, False)
    assert canonical_diagram_code(d1) == canonical_diagram_code(parse_spd(T2_1))


def test_canonical_form_is_stable():
    d = parse_spd(T2_2)
    c = canonical_form(d)
    assert serialize_spd(canonical_form(c)) == serialize_spd(c)


def test_folded_code_and_rebuild_from_unfolded_codes():
    # the facts the census pass relies on, for every height word on the
    # n <= 3 projections: the folded code is the smaller of the unfolded
    # codes of the word and of its T <-> B swap, and the diagram rebuilt
    # from the unfolded code is the canonical form
    swap = str.maketrans("TB", "BT")
    words_seen = 0
    for n in (2, 3):
        for p in enumerate_projections(n):
            for words in itertools.product(HEIGHT_WORDS, repeat=n):
                d = TripleDiagram(p, words)
                code = canonical_diagram_code(d)
                swapped = canonical_diagram_code(
                    TripleDiagram(p, [w.translate(swap) for w in words]))
                assert canonical_diagram_code(d, fold_mirror=True) == min(code, swapped)
                assert serialize_spd(_diagram_from_code(code, n)) == serialize_spd(
                    canonical_form(d))
                words_seen += 1
    assert words_seen == 468


def test_codes_equal_the_all_views_minimum():
    # every height word of the n <= 3 projections, then seeded n = 4
    # diagrams relabelled, half of them reflected with T <-> B swapped (the
    # same knot seen from the other side), in both fold modes
    swap = str.maketrans("TB", "BT")
    rng = random.Random(11)
    projections = {n: enumerate_projections(n) for n in (1, 2, 3, 4)}
    diagrams = [TripleDiagram(p, words) for n in (1, 2, 3) for p in projections[n]
                for words in itertools.product(HEIGHT_WORDS, repeat=n)]
    for p in projections[4]:
        for _ in range(12):
            d = TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(4)])
            reflect = rng.random() < 0.5
            e = relabel(p, rng.sample(range(4), 4), [rng.randrange(6) for _ in range(4)],
                        reflect, [w.translate(swap) if reflect else w for w in d.heights])
            assert canonical_diagram_code(e) == canonical_diagram_code(d)
            diagrams += [d, e]
    assert len(diagrams) == 474 + 24 * len(projections[4])
    for d in diagrams:
        for fold in (False, True):
            assert canonical_diagram_code(d, fold) == _reference_diagram_code(d, fold)
    for p in {d.projection for d in diagrams}:
        for fold in (False, True):
            assert canonical_projection_code(p, fold) == _reference_projection_code(p, fold)


def _check_frames(alpha, n, senses):
    traces = list(_reference_traces(TripleProjection(alpha, n), senses))
    best = min(code for _, code, _, _ in traces)
    frames = _frames(tuple(alpha), n, senses)
    assert frames == (best, tuple((sense, order, base)
                                  for sense, code, order, base in traces if code == best))
    return len(frames[1])


def test_frames_equal_the_reference_traces():
    # every n <= 4 shadow up to relabelling (not reflection), in its own
    # labelling and in two seeded relabellings, one of them reflected, with
    # and without the reflected sense
    rng = random.Random(14)
    winners = Counter()
    for n in (1, 2, 3, 4):
        for p in enumerate_raw_shadows(n, fold_mirror=False):
            for reflect in (None, False, True):
                q = p if reflect is None else relabel(
                    p, rng.sample(range(n), n), [rng.randrange(6) for _ in range(n)],
                    reflect)
                for senses in ((1,), (1, -1)):
                    winners[n, senses, _check_frames(q.alpha, n, senses)] += 1
    # symmetric shadows have several winning frames, 2 and 4 among them
    for senses in ((1,), (1, -1)):
        assert winners[4, senses, 2] and winners[4, senses, 4]
