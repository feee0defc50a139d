import itertools
import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from tricross import (
    Budget,
    BudgetExceeded,
    DiagramError,
    DoubleDiagram,
    KnotClass,
    TripleDiagram,
    alexander,
    classify,
    convert_to_double,
    count_table,
    enumerate_diagrams,
    enumerate_projections,
    enumerate_raw_shadows,
    fold_jones,
    fold_kauffman,
    identify,
    jones_triple,
    kauffman_f,
    rational_knot_pd,
    serialize_spd,
)
from tricross import enumeration
from tricross.canon import (
    _diagram_from_code,
    _frames,
    canonical_diagram_code,
    canonical_form,
    canonical_projection_code,
)
from tricross.enumeration import HEIGHT_WORDS, _mark_composites
from tricross.laurent import HalfLaurent, IntLaurent, Laurent2
from tricross.maps import TripleProjection
from conftest import W_31_41, W_41_41, W_SQUARE


def test_raw_shadow_counts_small():
    assert len(list(enumerate_raw_shadows(2))) == 3
    assert len(list(enumerate_raw_shadows(3))) == 16
    # the unpruned reference below stops at n = 3; these pin the face bound
    # at n = 4
    for fold_mirror, shadows, prime in ((True, 263, 65), (False, 502, 128)):
        found = list(enumerate_raw_shadows(4, fold_mirror=fold_mirror))
        assert (len(found), sum(p.is_prime() for p in found)) == (shadows, prime)


# shadows up to relabelling (and reflection, when folded); at n <= 3 they
# are the classes of the labelled shadows an unpruned search reaches (below)
@pytest.mark.parametrize("fold_mirror, counts", [(True, (3, 16, 263)),
                                                 (False, (4, 26, 502))])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_yields_each_class_once_in_canonical_form(n, fold_mirror, counts):
    shadows = list(enumerate_raw_shadows(n, fold_mirror=fold_mirror))
    for p in shadows:
        assert tuple(p.alpha) == canonical_projection_code(p, fold_mirror)
    assert len({tuple(p.alpha) for p in shadows}) == len(shadows) == counts[n - 2]


def _opposite(d):
    return 6 * (d // 6) + (d % 6 + 3) % 6


def _next_in_face(alpha, d):
    return 6 * (alpha[d] // 6) + (alpha[d] % 6 + 1) % 6


def _closed_faces(alpha):
    """Faces of a possibly partial pairing whose darts are all paired."""
    closed, seen = 0, set()
    for start, partner in enumerate(alpha):
        if partner < 0 or start in seen:
            continue
        d = start
        while alpha[d] >= 0 and d not in seen:
            seen.add(d)
            d = _next_in_face(alpha, d)
        closed += d == start
    return closed


def _partners(alpha, n, d, reached):
    """The partners plain backtracking offers the first unpaired dart ``d``,
    in order: each later unpaired dart of the ``reached`` crossings, then
    slot 0 of the next crossing."""
    partners = [e for e in range(d + 1, 6 * reached) if alpha[e] < 0]
    return partners + ([6 * reached] if reached < n and d < 6 * reached else [])


def _reference_labelled_shadows(n):
    """Every labelled one-curve shadow with ``n`` triple points and 2n + 2
    faces, by plain backtracking over the pairings ``_partners`` offers, so
    crossings are reached in order, each first at slot 0.  Each completed
    pairing is checked, none pruned."""
    alpha, found = [-1] * (6 * n), []

    def one_curve():
        d, edges = alpha[_opposite(0)], 1
        while d != 0:
            d, edges = alpha[_opposite(d)], edges + 1
        return edges == 3 * n

    def extend(reached):
        if -1 not in alpha:
            if one_curve() and _closed_faces(alpha) == 2 * n + 2:
                found.append(TripleProjection(list(alpha), n))
            return
        d = alpha.index(-1)
        for e in _partners(alpha, n, d, reached):
            alpha[d], alpha[e] = e, d
            extend(max(reached, e // 6 + 1))
            alpha[d] = alpha[e] = -1

    extend(1)
    return found


@pytest.mark.parametrize("n, labelled", [(1, 2), (2, 24), (3, 456)])
def test_search_reaches_every_class_of_an_unpruned_search(n, labelled):
    # the canonicity prune, the face bound and the forced pairing lose no
    # class: the search yields the canonical code of every labelled shadow
    shadows = _reference_labelled_shadows(n)
    assert len(shadows) == labelled
    for fold in (True, False):
        assert {canonical_projection_code(p, fold) for p in shadows} == {
            tuple(p.alpha) for p in enumerate_raw_shadows(n, fold_mirror=fold)}


@pytest.mark.parametrize("n, fold_mirror, pairings", [
    (2, True, 147), (2, False, 153),
    (3, True, 2470), (3, False, 3181),
    (4, True, 70402), (4, False, 114715),
])
def test_search_tries_a_fixed_number_of_pairings(n, fold_mirror, pairings):
    # a node budget of the pairings tried finishes and one less stops, so a
    # change to the pruning shows here even where the yield is unchanged
    list(enumerate_raw_shadows(n, Budget(max_nodes=pairings), fold_mirror=fold_mirror))
    with pytest.raises(BudgetExceeded):
        list(enumerate_raw_shadows(n, Budget(max_nodes=pairings - 1),
                                   fold_mirror=fold_mirror))


def test_projection_counts_small():
    assert len(enumerate_projections(2)) == 1
    assert len(enumerate_projections(3)) == 2


def test_projection_counts_without_mirror_folding():
    # mirror folding can only merge classes, never create them
    assert len(enumerate_projections(3, fold_mirror=False)) >= 2


def test_budget_and_resume_roundtrip():
    with pytest.raises(BudgetExceeded) as exc_info:
        enumerate_projections(3, budget=Budget(max_nodes=200))
    exc = exc_info.value
    # the token carries the partial codes, and resuming from it completes
    # the census
    done = enumerate_projections(3, resume_token=exc.resume_token)
    assert len(done) == 2
    # the search depends on the mirror setting, and so does its token
    with pytest.raises(DiagramError):
        enumerate_projections(3, fold_mirror=False, resume_token=exc.resume_token)


# n = 2 pairings that the search with mirror images folded cannot yield as
# prime shadows in canonical form
_NOT_SEARCHED = {
    "disconnected": [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10],
    "not-spherical": [1, 0, 3, 2, 6, 7, 4, 5, 10, 11, 8, 9],
    "two-curves": [1, 0, 3, 2, 6, 7, 4, 5, 11, 10, 9, 8],
    "not-prime": [1, 0, 3, 2, 6, 7, 4, 5, 9, 8, 11, 10],
    "relabelled": [1, 0, 7, 6, 11, 8, 3, 2, 5, 10, 9, 4],
    "mirror-form": [1, 0, 6, 11, 10, 7, 2, 5, 9, 8, 4, 3],
}


def _token(n, partial, fold_mirror=True):
    """A resume token at the start of the n search with these partial codes."""
    return json.dumps({"n": n, "fold_mirror": fold_mirror, "path": [],
                       "partial": [list(code) for code in partial]})


@pytest.mark.parametrize("code", _NOT_SEARCHED.values(), ids=_NOT_SEARCHED)
def test_resume_refuses_a_partial_code_the_search_cannot_yield(code):
    with pytest.raises(DiagramError, match=re.escape(str(code))):
        enumerate_projections(2, resume_token=_token(2, [code]))


def test_resume_accepts_the_codes_the_search_yields():
    (p,) = enumerate_projections(2)
    assert enumerate_projections(2, resume_token=_token(2, [p.alpha])) == [p]
    # the mirror form is a prime shadow of the search that keeps mirror
    # images apart
    mirror = tuple(_NOT_SEARCHED["mirror-form"])
    assert mirror in {q.alpha for q in enumerate_raw_shadows(2, fold_mirror=False)}
    assert (enumerate_projections(2, fold_mirror=False,
                                  resume_token=_token(2, [mirror], fold_mirror=False))
            == enumerate_projections(2, fold_mirror=False))


@settings(max_examples=20, deadline=None)
@given(st.integers(500, 2400))
def test_node_budget_stops_resume_to_the_full_search(max_nodes):
    # the n = 3 search tries about 2,500 pairings; stop every max_nodes of
    # them and resume from the token until done
    token = None
    for _ in range(20):
        try:
            done = enumerate_projections(3, budget=Budget(max_nodes=max_nodes),
                                         resume_token=token)
            break
        except BudgetExceeded as exc:
            token = exc.resume_token
    else:
        pytest.fail(f"no progress at max_nodes = {max_nodes}")
    assert [p.alpha for p in done] == [p.alpha for p in enumerate_projections(3)]


def _every_stop(n):
    """``(resume path, shadows yielded before it)`` of every stop of the raw
    n search, one pairing apart: each leg resumes from the last token and
    counts its replayed path, so it stops at the next pairing."""
    stops, token, yielded = [], None, 0
    while True:
        budget = Budget(max_nodes=len(stops[-1][0]) if stops else 0)
        try:
            for _ in enumerate_raw_shadows(n, budget=budget, resume_token=token):
                yielded += 1
        except BudgetExceeded as exc:
            token = exc.resume_token
            stops.append((json.loads(token)["path"], yielded))
        else:
            return stops


def _decision_path(alpha):
    """The partner of the first unpaired dart at each pairing, in the order
    the search pairs them: the resume path of a shadow."""
    paired, path = set(), []
    for d, e in enumerate(alpha):
        if d not in paired:
            path.append(e)
            paired.update((d, e))
    return path


def _random_decision_path(n, rng):
    """A prefix of a random walk down the pairings ``_partners`` offers,
    none checked, so a replay meets pairings the search rejects."""
    alpha, path, reached = [-1] * (6 * n), [], 1
    for _ in range(rng.randint(1, 3 * n)):
        d = alpha.index(-1)
        partners = _partners(alpha, n, d, reached)
        if not partners:
            break
        e = rng.choice(partners)
        alpha[d], alpha[e] = e, d
        reached = max(reached, e // 6 + 1)
        path.append(e)
    return path


@pytest.mark.parametrize("fold_mirror", [True, False])
@pytest.mark.parametrize("n", [2, 3])
def test_resume_from_any_decision_path(n, fold_mirror):
    # the search tries pairings in the order of their decision paths, so a
    # token resumes to the shadows at or after its path, also when a
    # replayed pairing is one the search rejects
    full = [p.alpha for p in enumerate_raw_shadows(n, fold_mirror=fold_mirror)]
    rng = random.Random(n)
    for _ in range(300):
        path = _random_decision_path(n, rng)
        token = json.dumps({"n": n, "fold_mirror": fold_mirror, "path": path})
        resumed = enumerate_raw_shadows(n, resume_token=token, fold_mirror=fold_mirror)
        assert [p.alpha for p in resumed] == [
            alpha for alpha in full if _decision_path(alpha) >= path], path


def test_tokens_pending_on_pairings_the_forced_pairing_skips_resume():
    # Where every pairing left must close two faces, the search tries only
    # the one that can; a search trying every pairing there could stop at
    # any of them.  At each stop on such a frame, a token pending on another
    # pairing resumes to what the full search yields after the stop, when
    # that pairing is below the forced one, or after the forced pairing's
    # subtree, when it is above.
    n, checked = 3, 0
    stops = _every_stop(n)
    full = [p.alpha for p in enumerate_raw_shadows(n)]
    assert stops[-1][1] == len(full)
    for i, (path, before) in enumerate(stops):
        alpha = [-1] * (6 * n)
        for e in path[:-1]:
            d = alpha.index(-1)
            alpha[d], alpha[e] = e, d
        if 2 * n + 2 - _closed_faces(alpha) - 2 * (3 * n - len(path)) < 2:
            continue
        after = next((b for later, b in stops[i + 1:] if later[:len(path)] != path),
                     len(full))
        reached = 1 + max(e // 6 for e in [0] + path[:-1])
        for e in _partners(alpha, n, alpha.index(-1), reached):
            if e != path[-1]:
                token = json.dumps({"n": n, "fold_mirror": True, "path": path[:-1] + [e]})
                rest = full[before if e < path[-1] else after:]
                resumed = enumerate_raw_shadows(n, resume_token=token)
                assert [p.alpha for p in resumed] == rest
                checked += 1
    assert checked


@pytest.mark.parametrize("wall_secs, stage", [(0.5, "search"), (1.5, "classify")])
def test_classify_budget_is_one_deadline(projection_clock, wall_secs, stage):
    # one tick for the n = 2 projection; at 0.5 s the n = 3 search inherits
    # an exhausted deadline, at 1.5 s the second n = 3 projection is refused
    with pytest.raises(BudgetExceeded) as exc_info:
        classify(3, budget=Budget(wall_secs=wall_secs))
    exc = exc_info.value
    assert (exc.n, exc.stage) == (3, stage)
    assert (exc.resume_token is None) == (stage == "classify")
    assert f"at n = 3 in the {stage} stage" in str(exc)
    # the stop keeps the finished n = 2 census and drops the stopped n
    assert count_table(exc.run) == [(2, 1, 2)]
    assert sorted(kc.c3 for kc in exc.run.classes.values()) == [2, 2]
    assert exc.run.kauffman_evals_per_n == {2: 2}


def test_enumerate_diagrams_deduplicates():
    p = enumerate_projections(2)[0]
    diagrams = enumerate_diagrams(p)
    assert 0 < len(diagrams) <= 36
    assert len({str(d.heights) + str(d.projection.alpha) for d in diagrams}) == len(
        diagrams)


def test_enumerate_diagrams_counts_distinct_diagrams():
    counts = []
    for n in (2, 3):
        diagrams = [d for p in enumerate_projections(n) for d in enumerate_diagrams(p)]
        codes = [canonical_diagram_code(d) for d in diagrams]
        assert len(set(codes)) == len(codes)
        counts.append(len(diagrams))
    assert counts == [21, 330]


def test_classify_canonicalises_each_word_once(monkeypatch):
    # 36 + 2 * 216 height words on the n <= 3 projections, 21 + 330 of them
    # distinct diagrams in 177 mirror classes; Alexander reads each class off
    # its triple diagram, and only the classes F runs on are deconstructed
    calls = Counter()

    def counted(name, fn, size=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls[name] += size(*args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(enumeration, name, wrapper)

    counted("canonical_diagram_code", canonical_diagram_code)
    counted("convert_to_double", convert_to_double)
    counted("alexander", alexander)
    counted("jones_triple_batch", enumeration.jones_triple_batch,
            lambda p, words: len(words))
    run = classify(3)
    assert sum(run.kauffman_evals_per_n.values()) == 6
    assert calls == {"canonical_diagram_code": 468, "convert_to_double": 6,
                     "alexander": 177, "jones_triple_batch": 177}


def _distinct_words(p):
    """The first height words of each distinct diagram on ``p``, in the
    order of ``itertools.product``, with its unfolded code."""
    first = {}
    for words in itertools.product(HEIGHT_WORDS, repeat=p.n):
        code = canonical_diagram_code(TripleDiagram(p, words), fold_mirror=False)
        first.setdefault(code, words)
    return [(words, code) for code, words in first.items()]


def _alexander_string(d):
    return str(alexander(convert_to_double(d)))


@pytest.fixture(scope="module")
def projections_n4():
    return enumerate_projections(4)


def test_alexander_is_mirror_invariant(projections_n4):
    # every distinct diagram at n <= 3, then 12 seeded words per n = 4
    # projection, against its T <-> B swap
    swap = str.maketrans("TB", "BT")
    rng = random.Random(19)
    diagrams = [d for n in (1, 2, 3) for p in enumerate_projections(n)
                for d in enumerate_diagrams(p)]
    diagrams += [TripleDiagram(p, [rng.choice(HEIGHT_WORDS) for _ in range(4)])
                 for p in projections_n4 for _ in range(12)]
    assert len(diagrams) == 2 + 21 + 330 + 12 * len(projections_n4)
    for d in diagrams:
        mirror = TripleDiagram(d.projection, [w.translate(swap) for w in d.heights])
        assert _alexander_string(d) == _alexander_string(mirror)


def _mirror_classes(p):
    """Reference grouping: the unfolded code of every height word on ``p``
    in product order, where a word whose code is new opens a mirror class
    that also takes the code of the word's T <-> B swap.  Returns the class
    index of each unfolded code, and the first word and code of each class
    in the order the classes open."""
    swap = str.maketrans("TB", "BT")
    codes = {words: canonical_diagram_code(TripleDiagram(p, words))
             for words in itertools.product(HEIGHT_WORDS, repeat=p.n)}
    klass, firsts = {}, []
    for words, code in codes.items():
        if code not in klass:
            mirror = codes[tuple(w.translate(swap) for w in words)]
            klass[code] = klass[mirror] = len(firsts)
            firsts.append((words, code))
    return klass, firsts


def test_project_classes_reads_one_record_per_mirror_class(projections_n4):
    """``_project_classes`` against the reference grouping: one record per
    mirror class, in the order of the classes' first words, with the first
    word's diagram, whose canonical form is the diagram of the first word's
    unfolded code; and every distinct diagram has its class's pair, the
    mirror invariance the stage relies on.  Records and witnesses on every
    projection at n <= 4 (three at n = 4 have two canonical frames, one
    has four); pairs on every distinct diagram at n <= 3 and on 40 seeded
    distinct diagrams of each of two seeded n = 4 projections."""
    frames = Counter(len(_frames(p.alpha, 4, (1, -1))[1]) for p in projections_n4)
    assert frames == {1: 11, 2: 3, 4: 1}
    rng = random.Random(23)
    sampled = rng.sample(range(len(projections_n4)), 2)
    cases = [(p, None) for n in (2, 3) for p in enumerate_projections(n)]
    cases += [(p, 40 if i in sampled else 0) for i, p in enumerate(projections_n4)]
    for p, sample in cases:
        klass, firsts = _mirror_classes(p)
        got = list(enumeration._project_classes(p))
        assert [d for _, d in got] == [TripleDiagram(p, words) for words, _ in firsts]
        assert [serialize_spd(canonical_form(d)) for _, d in got] == [
            serialize_spd(_diagram_from_code(code, p.n)) for _, code in firsts]
        distinct = _distinct_words(p) if sample != 0 else []
        if sample is not None:
            distinct = rng.sample(distinct, sample)
        for words, code in distinct:
            d = TripleDiagram(p, words)
            assert got[klass[code]][0] == (fold_jones(jones_triple(d)), _alexander_string(d))


def test_m_orbit_merge_keeps_every_jones_alexander_pair(projections_n4):
    """The M1/M2 orbit merge loses no (Jones, Alexander) pair at n = 4: the
    pairs over all 65 prime shadows are the pairs over the 15 orbit
    representatives.  Kauffman F is left out for cost: it would run on
    every mirror class of the 65 shadows."""
    def pairs(projections):
        return {pair for p in projections
                for pair, _ in enumeration._project_classes(p)}

    primes = [p for p in enumerate_raw_shadows(4) if p.is_prime()]
    assert (len(primes), len(projections_n4)) == (65, 15)
    merged = pairs(projections_n4)
    assert len(merged) == 30
    assert pairs(primes) == merged


def test_fold_jones_symmetric():
    v = HalfLaurent({2: 1, 6: 1, 8: -1})
    assert fold_jones(v) == fold_jones(v.invert_t())


def test_classify_small_counts():
    run = classify(3)
    assert count_table(run) == [(2, 1, 2), (3, 2, 2)]
    assert all(not kc.composite for kc in run.classes.values())


def test_classify_evaluates_kauffman_once_per_mirror_class(monkeypatch):
    # map each double diagram back to its triple diagram, then record the
    # mirror class of every diagram F is evaluated on
    source = {}
    classes = []

    def convert(d):
        dd = convert_to_double(d)
        source[id(dd)] = d
        return dd

    def f(dd):
        classes.append(canonical_diagram_code(source[id(dd)], fold_mirror=True))
        return kauffman_f(dd)

    monkeypatch.setattr(enumeration, "convert_to_double", convert)
    monkeypatch.setattr(enumeration, "kauffman_f", f)
    run = classify(3)
    assert count_table(run) == [(2, 1, 2), (3, 2, 2)]
    # 3 and 8 diagrams carry a new pair at n = 2, 3: the trefoil, its mirror
    # and the figure-eight; then four each of 5_2 and 6_1, in two mirror
    # classes each
    assert run.kauffman_evals_per_n == {2: 2, 3: 4}
    assert len(classes) == len(set(classes)) == 6


def _reference_composites(classes):
    """Keys of the classes with a factoring over two classes whose c3 sum is
    at most their own: a loop over (class, factor, factor) triples."""
    flagged = set()
    items = list(classes.values())
    for key, kc in classes.items():
        for a in items:
            if a.c3 >= kc.c3:
                continue
            for b in items:
                if a.c3 + b.c3 > kc.c3:
                    continue
                prod_alex = IntLaurent.parse(a.alexander) * IntLaurent.parse(b.alexander)
                if str(prod_alex) != kc.alexander:
                    continue
                jones = enumeration._folded_products(
                    HalfLaurent.parse(a.jones_folded),
                    HalfLaurent.parse(b.jones_folded),
                    HalfLaurent.invert_t, fold_jones)
                fs = enumeration._folded_products(
                    Laurent2.parse(a.kauffman_folded),
                    Laurent2.parse(b.kauffman_folded),
                    Laurent2.invert_a, fold_kauffman)
                if kc.jones_folded in jones and kc.kauffman_folded in fs:
                    flagged.add(key)
    return flagged


def _flags_of(classes):
    """``_mark_composites``'s flags on fresh copies of ``classes``."""
    fresh = {key: replace(kc, composite=False) for key, kc in classes.items()}
    _mark_composites(fresh)
    return {key for key, kc in fresh.items() if kc.composite}


_TREFOIL_F = kauffman_f(DoubleDiagram.from_pd(rational_knot_pd((3,))))


def test_mark_composites_on_synthetic_classes():
    v1 = HalfLaurent({2: 1, 6: 1, 8: -1})          # trefoil-like
    a1 = "1*t^-1 + -1*t^0 + 1*t^1"
    prod_v = fold_jones(v1 * v1)
    prod_a = "1*t^-2 + -2*t^-1 + 3*t^0 + -2*t^1 + 1*t^2"
    classes = {
        "a": KnotClass(fold_jones(v1), a1, fold_kauffman(_TREFOIL_F), 2, "w1"),
        "b": KnotClass(prod_v, prod_a, fold_kauffman(_TREFOIL_F * _TREFOIL_F), 4, "w2"),
    }
    assert _flags_of(classes) == _reference_composites(classes) == {"b"}


def test_mark_composites_requires_kauffman_to_factor():
    v1 = HalfLaurent({2: 1, 6: 1, 8: -1})
    a1 = "1*t^-1 + -1*t^0 + 1*t^1"
    f1 = _TREFOIL_F
    prod_v = fold_jones(v1 * v1)
    prod_a = "1*t^-2 + -2*t^-1 + 3*t^0 + -2*t^1 + 1*t^2"

    def candidate(f):
        return KnotClass(prod_v, prod_a, fold_kauffman(f), 4, "w")

    classes = {
        "a": KnotClass(fold_jones(v1), a1, fold_kauffman(f1), 2, "w1"),
        "granny": candidate(f1 * f1),
        "square": candidate(f1 * f1.invert_a()),
        "prime": candidate(f1 * f1 + Laurent2.one()),
    }
    assert _flags_of(classes) == _reference_composites(classes) == {"granny", "square"}


def test_mark_composites_equals_the_reference_loop_on_the_census(run_n4):
    flagged = _flags_of(run_n4.classes)
    assert flagged == _reference_composites(run_n4.classes)
    assert flagged == {key for key, kc in run_n4.classes.items() if kc.composite}
    assert Counter(run_n4.classes[key].c3 for key in flagged) == {4: 3}


def _synthetic_classes(rng, reference):
    """Classes from reference keys at random c3: primes, connected sums of
    two of them under a random mirroring, and sums whose F alone is changed
    (their Jones and Alexander factor, their F does not)."""
    primes = rng.sample([r.fingerprint for r in reference if r.c2 <= 7], 6)

    def parsed(key):
        return (HalfLaurent.parse(key[0]), IntLaurent.parse(key[1]),
                Laurent2.parse(key[2]))

    classes = {}

    def add(key, c3):
        classes.setdefault(key, KnotClass(*key, c3, "w"))

    for key in primes:
        add(key, rng.randint(2, 4))
    for _ in range(10):
        (va, aa, fa), (vb, ab, fb) = map(parsed, rng.choices(primes, k=2))
        if rng.random() < 0.5:
            vb, fb = vb.invert_t(), fb.invert_a()
        f = fa * fb
        if rng.random() < 0.3:
            f = f + Laurent2.one()
        add((fold_jones(va * vb), str(aa * ab), fold_kauffman(f)), rng.randint(3, 8))
    return classes


def test_mark_composites_equals_the_reference_loop_on_synthetic_classes(reference):
    flagged = unflagged = 0
    for seed in range(12):
        classes = _synthetic_classes(random.Random(seed), reference)
        want = _reference_composites(classes)
        assert _flags_of(classes) == want
        flagged += len(want)
        unflagged += len(classes) - len(want)
    assert flagged and unflagged


def test_census_n4_kauffman_splits_two_keys(run_n4, reference):
    at4 = [kc for kc in run_n4.classes.values() if kc.c3 == 4]
    assert len(at4) == 27
    assert {kc.witness_spd for kc in at4 if kc.composite} == {
        W_SQUARE, W_31_41, W_41_41}
    # F is computed only for diagrams whose (Jones, Alexander) pair is new,
    # once per mirror class: 257 evaluations for 497 such diagrams
    assert run_n4.kauffman_evals_per_n[4] == 257
    by_pair = Counter(kc.fingerprint[:2] for kc in at4)
    split = [pair for pair, k in by_pair.items() if k > 1]
    assert sorted(by_pair.values()) == [1] * 23 + [2, 2]
    # one split pair is 5_1's: F names one of its classes and leaves the
    # other nameless; the other is 4_1 # 4_1's: one class flagged, one not
    verdicts = []
    for pair in split:
        kcs = [kc for kc in at4 if kc.fingerprint[:2] == pair]
        assert kcs[0].kauffman_folded != kcs[1].kauffman_folded
        verdicts.append(sorted((identify(kc.fingerprint, reference) or "", kc.composite)
                               for kc in kcs))
    assert sorted(verdicts) == [[("", False), ("", True)], [("", False), ("5_1", False)]]


def test_census_n4_kauffman_sweep_of_every_diagram(run_n4, reference):
    """F on every nontrivial n = 4 diagram, once per mirror class, splits
    only the 5_1 and 4_1 # 4_1 (Jones, Alexander) keys: the census, which
    runs F only on pairs first realized at n = 4, misses no class there."""
    unknot = (fold_jones(HalfLaurent.one()), str(IntLaurent.from_int_coeffs({0: 1})))
    fs_by_pair = {}
    for p in enumerate_projections(4):
        for pair, d in enumeration._project_classes(p):
            if pair != unknot:
                fs_by_pair.setdefault(pair, set()).add(
                    fold_kauffman(kauffman_f(convert_to_double(d))))
    split = {pair for pair, fs in fs_by_pair.items() if len(fs) > 1}
    assert len(split) == 2
    swept = {pair + (f,) for pair, fs in fs_by_pair.items() for f in fs}
    assert sorted(identify(key, reference) or "" for key in swept
                  if key[:2] in split) == ["", "", "", "5_1"]
    assert swept <= set(run_n4.classes)
    older = {kc.fingerprint[:2] for kc in run_n4.classes.values() if kc.c3 < 4}
    at4 = {kc.fingerprint for kc in run_n4.classes.values() if kc.c3 == 4}
    assert {key for key in swept if key[:2] not in older} == at4
    assert len(at4) == 27


def test_census_names_are_unique(run_n4, reference):
    names = [identify(kc.fingerprint, reference)
             for kc in run_n4.classes.values()]
    named = [x for x in names if x is not None]
    assert len(named) == len(set(named))
    assert not any(x.startswith("ambiguous:") for x in named)
    assert {"3_1", "4_1", "5_1", "5_2", "6_1"} <= set(named)
