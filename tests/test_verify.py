"""The exhaustive word-problem gate still fails when either route is wrong,
and the distinct tile graphs match the per-tile route."""

import pytest

from braidtiles import braid, tiles, verify

# A nontrivial exhaustive 3-strand word (a conjugate of s1^-1).  Any such word
# would do; this one comes early in the walk, so the failing run ends soon.
_WORD = (2, -1, -2)


def _word_problem_record():
    return verify._run("word-problem-agreement", lambda: verify._check_word_problem(0))


def _assert_mismatch_on_word(record):
    assert record.status == "fail"
    assert "WordProblemMismatch" in record.details
    assert braid.format_braid_word(braid.BraidWord(3, _WORD)) in record.details


def test_gate_catches_a_wrong_handle_reduction(monkeypatch):
    real = braid._handle_reduce_letters

    def wrong_on_one_word(letters):
        return [] if letters == _WORD else real(letters)

    monkeypatch.setattr(braid, "_handle_reduce_letters", wrong_on_one_word)
    _assert_mismatch_on_word(_word_problem_record())


def test_gate_reduces_every_word_once(monkeypatch):
    real = braid._handle_reduce_letters
    calls = []

    def counted(letters):
        calls.append(len(letters))
        return real(letters)

    monkeypatch.setattr(braid, "_handle_reduce_letters", counted)
    assert _word_problem_record().status == "pass"
    assert len(calls) == 87_381 + 1_000


def test_gate_catches_corrupted_walked_images(monkeypatch):
    real = braid._suffix_walk

    def corrupt_one_node(n, depth):
        for letters, images in real(n, depth):
            yield letters, ([[i] for i in range(1, n + 1)] if letters == _WORD else images)

    monkeypatch.setattr(braid, "_suffix_walk", corrupt_one_node)
    _assert_mismatch_on_word(_word_problem_record())


@pytest.mark.parametrize("max_atoms", range(1, 7))
def test_distinct_graphs_match_the_per_tile_route(max_atoms):
    seen, expected = set(), []
    for tile in tiles.enumerate_tiles(max_atoms):
        g = tiles.marked_graph_of(tile)
        if (g.points, g.edges) not in seen:
            seen.add((g.points, g.edges))
            expected.append(g)
    # MarkedGraph equality compares the half-edges too
    assert verify._distinct_graphs(max_atoms) == expected
