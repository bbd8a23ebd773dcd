"""The exhaustive word-problem gate still fails when either route is wrong,
the symplectic relation check fails when phi is wrong, and the distinct
tile graphs match the per-tile route."""

import re

import pytest

from braidtiles import braid, homs, tiles, verify

# A nontrivial freely reduced 3-strand word (a conjugate of s1^-1).  Any such
# word would do; this one comes early in the walk, so the failing run ends soon.
_WORD = (2, -1, -2)


def _word_problem_record():
    return verify._run("word-problem-agreement", lambda: verify._check_word_problem(0))


def _mismatched_word(record):
    """The letters of the word a failed gate record names."""
    assert record.status == "fail"
    assert "WordProblemMismatch" in record.details
    named = re.search(r"for (b3: [^'\"]*)", record.details).group(1)
    return braid.parse_braid_word(named).letters


def test_gate_catches_a_wrong_handle_reduction(monkeypatch):
    real = braid._handle_reduce_letters

    def wrong_on_one_word(letters):
        return [] if letters == _WORD else real(letters)

    monkeypatch.setattr(braid, "_handle_reduce_letters", wrong_on_one_word)
    # the kernel sees free reductions, and the gate names the state's reduction
    assert _mismatched_word(_word_problem_record()) == _WORD


def test_gate_reduces_each_distinct_free_reduction_once(monkeypatch):
    real = braid._handle_reduce_letters
    calls = []

    def counted(letters):
        calls.append(tuple(letters))
        return real(letters)

    monkeypatch.setattr(braid, "_handle_reduce_letters", counted)
    assert _word_problem_record().status == "pass"
    # 13,121 freely reduced 3-strand words of length <= 8, then the 1,000 samples
    assert len(calls) == 13_121 + 1_000
    exhaustive = calls[:13_121]
    assert len(set(exhaustive)) == len(exhaustive)
    assert all(list(letters) == braid._free_reduce(letters) for letters in exhaustive)


def test_gate_catches_corrupted_walked_images(monkeypatch):
    real = braid._suffix_walk

    def corrupt_one_state(n, depth):
        for reduced, images, count in real(n, depth):
            yield reduced, (tuple((i,) for i in range(1, n + 1)) if reduced == _WORD else images), count

    monkeypatch.setattr(braid, "_suffix_walk", corrupt_one_state)
    assert _mismatched_word(_word_problem_record()) == _WORD


def test_gate_catches_a_corrupted_carried_reduction(monkeypatch):
    real = braid._suffix_walk

    def corrupt_one_state(n, depth):
        for reduced, images, count in real(n, depth):
            yield (() if reduced == _WORD else reduced), images, count

    monkeypatch.setattr(braid, "_suffix_walk", corrupt_one_state)
    assert _mismatched_word(_word_problem_record()) == ()


def test_gate_catches_images_that_depend_on_the_path(monkeypatch):
    # Wrong only on one distinct step: a positive letter on the image pair
    # ((2,), (-2, 1, 2)) of s1^-1.  s1 s1^-1 takes that step, and it cancels
    # the reduction's first letter, so the empty reduction has the identity
    # images from the empty word and wrong ones through s1 s1^-1.  The walk
    # keeps both states, so the gate names the empty word; a walk that kept
    # one state per reduction would hide this fault there.
    real = braid._fold_letters
    s1_inverse = ((2,), (-2, 1, 2))

    def wrong_on_one_step(images, letters):
        if tuple(images) == s1_inverse and tuple(letters) == (1,):
            return [(1,), (1,)]
        return real(images, letters)

    monkeypatch.setattr(braid, "_fold_letters", wrong_on_one_step)
    assert _mismatched_word(_word_problem_record()) == ()


def _bend_chain_class_3(real):
    """Chain class 3 replaced by class 3 + class 2."""
    def bent(g):
        classes = list(real(g))
        classes[2] = tuple(a + b for a, b in zip(classes[2], classes[1]))
        return tuple(classes)
    return bent


def _square_each_transvection(real):
    """d doubled: the square of each transvection, which is still symplectic."""
    def squared(c):
        u, d = real(c)
        return u, [(j, 2 * y) for j, y in d]
    return squared


WRONG_PHIS = [
    ("chain_classes", _bend_chain_class_3, "genus 2: relator 2: s1 s3 s1^-1 s3^-1"),
    ("_transvection_factor", _square_each_transvection, "genus 2: relator 1: s1 s2 s1 s2^-1 s1^-1 s2^-1"),
]


@pytest.mark.parametrize("name, wrong, details", WRONG_PHIS, ids=["bent-chain-class", "squared-transvection"])
def test_symplectic_check_catches_a_wrong_phi(monkeypatch, name, wrong, details):
    monkeypatch.setattr(homs, name, wrong(getattr(homs, name)))
    assert verify._check_phi_well_defined() == (False, details)


def test_symplectic_check_catches_a_wrong_phi_with_a_warm_memo(monkeypatch):
    # an unmutated run fills the letter-program memo first; each mutation
    # must still reach the images through it
    assert verify._check_phi_well_defined()[0]
    for name, wrong, details in WRONG_PHIS:
        with monkeypatch.context() as patch:
            patch.setattr(homs, name, wrong(getattr(homs, name)))
            assert verify._check_phi_well_defined() == (False, details)
        assert verify._check_phi_well_defined()[0]


@pytest.mark.parametrize("max_atoms", range(1, 7))
def test_distinct_graphs_match_the_per_tile_route(max_atoms):
    seen, expected = set(), []
    for tile in tiles.enumerate_tiles(max_atoms):
        g = tiles.marked_graph_of(tile)
        if (g.points, g.edges) not in seen:
            seen.add((g.points, g.edges))
            expected.append((g.points, g.edges))
    graphs = verify._distinct_graphs(max_atoms)
    assert [(g.points, g.edges) for g in graphs] == expected
    assert all(g.half_edges == () for g in graphs)
