"""The exhaustive word-problem gate still fails when either route is wrong."""

from braidtiles import braid, verify

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
    real = braid.handle_reduce

    def wrong_on_one_word(word):
        return braid.BraidWord(word.n, ()) if word.letters == _WORD else real(word)

    monkeypatch.setattr(braid, "handle_reduce", wrong_on_one_word)
    _assert_mismatch_on_word(_word_problem_record())


def test_gate_catches_corrupted_walked_images(monkeypatch):
    real = braid._suffix_walk

    def corrupt_one_node(n, depth):
        for letters, images in real(n, depth):
            yield letters, ([[i] for i in range(1, n + 1)] if letters == _WORD else images)

    monkeypatch.setattr(braid, "_suffix_walk", corrupt_one_node)
    _assert_mismatch_on_word(_word_problem_record())
