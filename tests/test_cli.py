import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import braidtiles
from braidtiles import artin, braid
from braidtiles.cli import main

WITNESS_TILE = "(((F + P) ; P) + 1_1) ; P"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_braid_trivial_true(capsys):
    code, out, _ = run(capsys, "braid", "trivial", "b3: s1 s2 s1 s2^-1 s1^-1 s2^-1")
    assert code == 0
    assert out.strip() == "true"


def test_braid_trivial_false_json(capsys):
    code, out, _ = run(capsys, "braid", "trivial", "--json", "b3: s1")
    assert code == 0
    assert json.loads(out) == {"trivial": False}


def test_braid_reduce(capsys):
    code, out, _ = run(capsys, "braid", "reduce", "b3: s1 s2 s2^-1 s1^-1 s2")
    assert code == 0
    assert out.strip() == "b3: s2"


def test_braid_equal(capsys):
    code, out, _ = run(capsys, "braid", "equal", "b3: s1 s2 s1", "b3: s2 s1 s2")
    assert code == 0
    assert out.strip() == "true"


def test_braid_cable(capsys):
    code, out, _ = run(capsys, "braid", "cable", "b2: s1", "b2: e", "b2: e")
    assert code == 0
    assert out.strip() == "b4: s2 s1 s3 s2"


def test_braid_mirror(capsys):
    code, out, _ = run(capsys, "braid", "mirror", "b3: s1 s2^-1")
    assert code == 0
    assert out.strip() == "b3: s1^-1 s2"


def test_quiet_suppresses_output(capsys):
    code, out, _ = run(capsys, "braid", "trivial", "--quiet", "b3: s1")
    assert code == 0
    assert out == ""


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "braid", "trivial", "b3: s9")
    assert code == 2
    assert out == ""
    assert "position 4" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "braid", "frobnicate", "b3: s1")
    assert code == 2


def test_tile_nf_round_trip(capsys):
    code, out, _ = run(capsys, "tile", "nf", "((F ; F) + 1_2) ; (1_1 + P) ; P")
    assert code == 0
    text = out.strip()
    code2, out2, _ = run(capsys, "tile", "nf", text)
    assert code2 == 0
    assert out2.strip() == text


def test_tile_nf_json(capsys):
    code, out, _ = run(capsys, "tile", "nf", "--json", "F")
    assert code == 0
    assert json.loads(out) == {
        "dom": 1,
        "cod": 1,
        "nodes": [{"tag": "F", "inputs": [["in", 0]]}],
        "outputs": [["node", 0]],
    }


def test_tile_glue_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "tile", "nf", "F ; P")
    assert code == 2
    assert "cannot glue" in err


def test_tile_tree(capsys):
    code, out, _ = run(capsys, "tile", "tree", "--json", WITNESS_TILE)
    assert code == 0
    obj = json.loads(out)
    assert obj["points"] == 5
    assert obj["edges"] == [[1, 2], [2, 4], [3, 4], [4, 5]]


def test_tile_group(capsys):
    code, out, _ = run(capsys, "tile", "group", "--json", "F ; F")
    assert code == 0
    obj = json.loads(out)
    assert obj["generators"] == ["g1", "g2", "g3"]
    assert len(obj["relators"]) == 3


def test_tile_mcg(capsys):
    code, out, _ = run(capsys, "tile", "mcg", "--json", WITNESS_TILE)
    assert code == 0
    assert json.loads(out) == {"marked_points": 5, "braid_strands": 5}


def test_artin_abelianize_from_tile(capsys):
    code, out, _ = run(capsys, "artin", "abelianize", "--tile", WITNESS_TILE)
    assert code == 0
    assert out.strip() == "Z"


def test_artin_abelianize_from_graph_json(capsys):
    graph = json.dumps({"points": 4, "edges": [[1, 2], [3, 4]]})
    code, out, _ = run(capsys, "artin", "abelianize", "--graph", graph)
    assert code == 0
    assert out.strip() == "Z^2"


def test_artin_abelianize_from_presentation(capsys):
    pres = json.dumps({"generators": ["a", "b"], "relators": [[1, 1]]})
    code, out, _ = run(capsys, "artin", "abelianize", "--presentation", pres)
    assert code == 0
    assert out.strip() == "Z + Z/2"


def test_artin_certify(capsys):
    code, out, _ = run(
        capsys, "artin", "certify", "--tile", WITNESS_TILE,
        "g3^-1 g2 g3 g4 g3^-1 g2^-1 g3 g4^-1",
    )
    assert code == 0
    assert out.strip() == "nontrivial"


def test_artin_coxeter_involution(capsys):
    code, out, _ = run(capsys, "artin", "coxeter", "--json", "--tile", WITNESS_TILE, "g2 g2")
    assert code == 0
    m = json.loads(out)
    assert all(m[i][j] == ("1" if i == j else "0") for i in range(4) for j in range(4))


def test_artin_unknown_generator_exits_2(capsys):
    code, _, err = run(capsys, "artin", "certify", "--tile", "F", "g7")
    assert code == 2
    assert "g7" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("artin", "abelianize", "--graph", "{not json"),
        ("artin", "abelianize", "--graph", "{}"),
        ("artin", "abelianize", "--graph", "[1]"),
        ("artin", "abelianize", "--graph", '{"points": 1e400}'),
        ("artin", "abelianize", "--presentation", "{}"),
        ("hom", "omega-gamma", "--genus", "1", "b2: s1", "[1]"),
        ("hom", "omega-gamma", "--genus", "1", "b1: e", '[[["1/0","0"],["0","1"]]]'),
        ("artin", "abelianize", "--graph", '{"points": true}'),
        ("artin", "abelianize", "--graph", '{"points": "3"}'),
        ("artin", "abelianize", "--graph", '{"points": 3, "edges": [[1, 2.5]]}'),
        ("artin", "abelianize", "--presentation", '{"generators": ["a"], "relators": [[1.0]]}'),
        ("artin", "abelianize", "--presentation", '{"generators": "ab", "relators": []}'),
        ("artin", "abelianize", "--presentation", '{"generators": [1, 1.5], "relators": []}'),
        ("artin", "abelianize", "--presentation", '{"generators": {"a": 1}, "relators": {}}'),
        ("artin", "abelianize", "--graph", '{"points": -1}'),
        ("artin", "abelianize", "--graph", '{"points": 3, "half_edges": [{"point": 9, "side": "in", "interval": 1}]}'),
        ("hom", "omega-gamma", "--genus", "1", "b1: e", "{}"),
        ("braid", "trivial", "b3: e s1"),
        ("hom", "omega-gamma", "--genus", "1", "b2: s1", '[[], [["1","0"],["0","1"]]]'),
        ("hom", "theta", "--tile", WITNESS_TILE, ""),
        ("hom", "omega-gamma", "--genus", "1", "b1: e", '[[["1_0","0"],["0","1"]]]'),
    ],
    ids=["not-json", "graph-empty-object", "graph-list", "graph-infinite-points", "presentation-empty-object",
         "blocks-not-matrices", "blocks-zero-denominator", "graph-bool-points", "graph-string-points",
         "graph-float-edge-end", "presentation-float-letter", "presentation-string-generators",
         "presentation-number-generators", "presentation-object-fields", "graph-negative-points",
         "graph-half-edge-out-of-range", "blocks-not-a-list", "letter-after-e", "blocks-empty-block",
         "blank-edge-word", "blocks-underscore-numeral"],
)
def test_artin_bad_graph_json_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    if "--presentation" in argv and argv[-1] != "{}":
        assert "presentation JSON field" in err
    if "1_0" in argv[-1]:
        assert err.startswith("error: invalid scalar '1_0'")


@pytest.mark.parametrize(
    "edges, half_edge, message",
    [
        ([], {"point": 1, "side": "up", "interval": 1},
         "graph JSON field 'half_edges': half-edge side must be 'in' or 'out', got 'up'"),
        ([], {"point": 1, "side": "in", "interval": 0},
         "graph JSON field 'half_edges': boundary interval must be >= 1, got 0"),
        # JSON half-edges are checked as they are read, before the graph checks its edges
        ([[2, 7]], {"point": 1, "side": "up", "interval": 1},
         "graph JSON field 'half_edges': half-edge side must be 'in' or 'out', got 'up'"),
        # a half-edge's point is checked by the graph, after its edges
        ([[2, 7]], {"point": 9, "side": "in", "interval": 1}, "edge (2,7) is not an ordered pair of points 1..3"),
    ],
    ids=["bad-side", "zero-interval", "bad-edge-and-bad-side", "bad-edge-and-bad-point"],
)
def test_malformed_half_edges_exit_2_with_their_message(capsys, edges, half_edge, message):
    graph = json.dumps({"points": 3, "edges": edges, "half_edges": [half_edge]})
    code, out, err = run(capsys, "artin", "abelianize", "--graph", graph)
    assert (code, out, err) == (2, "", f"error: {message}\n")


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * 5000


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts numerals of any length")
@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("artin", "abelianize", "--graph", f'{{"points": {LONG}}}'), ""),
        (("artin", "abelianize", "--graph", f'{{"points": 3, "edges": [[1, -{LONG}]]}}'), ""),
        (("artin", "abelianize", "--presentation", f'{{"generators": ["a"], "relators": [[{LONG}]]}}'), ""),
        (("hom", "omega-gamma", "--genus", "1", "b1: e", f'[[["{LONG}","0"],["0","1"]]]'), "invalid scalar: "),
        (("hom", "omega-gamma", "--genus", "1", "b1: e", f'[[["1","0"],["0","-1/{LONG}"]]]'), "invalid scalar: "),
    ],
    ids=["graph-points", "graph-negative-edge-end", "presentation-letter", "blocks-numerator", "blocks-denominator"],
)
def test_numerals_past_the_digit_limit_exit_2_with_their_length(capsys, argv, prefix):
    code, out, err = run(capsys, *argv)
    message = f"numeral too long: 5000 digits, the limit is {DIGIT_LIMIT}"
    assert (code, out, err) == (2, "", f"error: {prefix}{message}\n")


@pytest.mark.parametrize("flag", ["--graph", "--presentation"])
def test_deeply_nested_json_exits_2(capsys, flag):
    code, out, err = run(capsys, "artin", "abelianize", flag, "[" * 30_000 + "]" * 30_000)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_deeply_nested_blocks_exit_2(capsys):
    code, _, err = run(capsys, "hom", "omega-gamma", "--genus", "1", "b1: e", "[" * 30_000 + "]" * 30_000)
    assert code == 2
    assert "nested too deeply" in err


def test_word_problem_mismatch_exits_3(capsys, monkeypatch):
    # the Dynnikov route claims every word is nontrivial, so a trivial word disagrees
    monkeypatch.setattr(braid, "_dynnikov_trivial", lambda letters: False)
    code, out, err = run(capsys, "braid", "trivial", "b3: s1 s1^-1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: handle reduction says trivial=True")
    assert "Dynnikov coordinates says trivial=False" in err


def test_handle_step_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(braid, "_HANDLE_STEP_LIMIT", 0)
    code, out, err = run(capsys, "braid", "reduce", "b3: s1 s2 s1^-1")
    assert code == 3
    assert out == ""
    assert err == "error: handle reduction exceeded its step budget\n"


def test_main_leaves_the_recursion_limit_alone(capsys):
    default = sys.getrecursionlimit()
    sys.setrecursionlimit(default + 7)  # a value no code path would pick
    try:
        run(capsys, "tile", "tree", WITNESS_TILE)
        assert sys.getrecursionlimit() == default + 7
    finally:
        sys.setrecursionlimit(default)


def test_deep_tile_in_a_fresh_interpreter():
    # D + D + ... ; F + F + ... once overflowed the C stack (SIGSEGV)
    expr = "+".join(["D"] * 20_000) + ";" + "+".join(["F"] * 20_000)
    src = str(Path(braidtiles.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "braidtiles.cli", "tile", "tree", "--json", expr],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    graph = json.loads(proc.stdout)
    assert graph["points"] == 40_000
    assert len(graph["edges"]) == 20_000


def _fresh_cli(unbuffered, *args, **kwargs):
    """``python -m braidtiles *args`` in a fresh interpreter that imports this
    package, with stdout block-buffered (the default) or unbuffered."""
    src = str(Path(braidtiles.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONUNBUFFERED": "1" if unbuffered else ""}
    return subprocess.Popen([sys.executable, "-m", "braidtiles", *args], env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stdout_pipe_closed_by_its_reader_exits_141_in_silence(unbuffered):
    # megabytes of relators: the reader takes the first bytes and leaves while the rest is written
    proc = _fresh_cli(unbuffered, "tile", "group", " ; ".join(["F"] * 200), stdout=subprocess.PIPE)
    assert proc.stdout.read(10) == b"< g1, g2, "
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


PARSE_ERROR = b"error: expected a tile term (at position 3)\n"


@pytest.mark.parametrize("unbuffered,argv,code,err", [
    (False, ("tile", "mcg", "F"), 141, b""),
    (True, ("tile", "mcg", "F"), 141, b""),
    (False, ("tile", "mcg", "F ;"), 2, PARSE_ERROR),
    (True, ("tile", "mcg", "F ;"), 2, PARSE_ERROR),
    (False, ("--help",), 141, b""),  # unbuffered, argparse drops help text it cannot write, and exits 0
], ids=["answer", "answer-unbuffered", "parse-error", "parse-error-unbuffered", "help"])
def test_a_stdout_pipe_closed_before_the_answer(unbuffered, argv, code, err):
    # the write end of a pipe whose reader is already gone: every write fails, and an error still reads as one
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_cli(unbuffered, *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.wait(timeout=120), proc.stderr.read()) == (code, err)
    proc.stderr.close()


@pytest.mark.parametrize("word", ["b3: s1 s1^-1", "b3: s3"], ids=["answer", "parse-error"])
def test_module_form_runs_the_cli(word):
    src = str(Path(braidtiles.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    package, module = (
        subprocess.run([sys.executable, "-m", name, "braid", "trivial", word],
                       capture_output=True, text=True, env=env, timeout=120)
        for name in ("braidtiles", "braidtiles.cli")
    )
    assert (package.stdout, package.stderr, package.returncode) == (module.stdout, module.stderr, module.returncode)
    assert package.returncode == (0 if word == "b3: s1 s1^-1" else 2)


def test_hom_phi(capsys):
    code, out, _ = run(capsys, "hom", "phi", "--json", "--genus", "1", "b2: s1")
    assert code == 0
    assert json.loads(out) == [["1", "1"], ["0", "1"]]


def test_hom_theta(capsys):
    code, out, _ = run(capsys, "hom", "theta", "--tile", WITNESS_TILE, "g2")
    assert code == 0
    assert out.strip() == "b5: s3 s2 s3^-1"


def test_hom_theta_reads_the_word_without_building_relators(capsys, monkeypatch):
    def refuse(graph):
        raise AssertionError("presentation_from_graph called")

    monkeypatch.setattr(artin, "presentation_from_graph", refuse)
    code, out, _ = run(capsys, "hom", "theta", "--tile", WITNESS_TILE, "g2")
    assert code == 0
    assert out.strip() == "b5: s3 s2 s3^-1"
    code, _, err = run(capsys, "hom", "theta", "--tile", WITNESS_TILE, "g9")
    assert code == 2
    assert err == "error: unknown generator 'g9'\n"


def test_hom_phitile(capsys):
    code, out, _ = run(capsys, "hom", "phitile", "--json", "--tile", "F ; F", "g1")
    assert code == 0
    m = json.loads(out)
    assert len(m) == 3  # one basis vector per edge


def test_hom_omega_gamma_default_blocks(capsys):
    code, out, _ = run(capsys, "hom", "omega-gamma", "--json", "--genus", "1", "b2: s1")
    assert code == 0
    assert json.loads(out) == [
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
    ]


def test_hom_omega_gamma_explicit_blocks(capsys):
    blocks = json.dumps([[["1", "1"], ["0", "1"]], [["1", "0"], ["0", "1"]]])
    code, out, _ = run(
        capsys, "hom", "omega-gamma", "--json", "--genus", "1", "b2: e", blocks
    )
    assert code == 0
    assert json.loads(out) == [
        ["1", "1", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]


def test_hom_phi1(capsys):
    code, out, _ = run(capsys, "hom", "phi1", "--json", "--genus", "1", "b2: s1 s1")
    assert code == 0
    m = json.loads(out)
    assert all(m[i][j] == ("1" if i == j else "0") for i in range(4) for j in range(4))


def test_hom_discrepancy(capsys):
    code, out, _ = run(
        capsys, "hom", "discrepancy", "--json", "--genus", "1", "b2: s1", "b2: e", "b2: e"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is False
    assert obj["cabled"] != obj["blockwise"]


def test_verify_random_passes(capsys):
    code, out, _ = run(capsys, "verify", "random", "--seed", "5", "--max-len", "6", "--genus", "1")
    assert code == 0
    assert "pass" in out


def test_verify_random_json(capsys):
    code, out, _ = run(
        capsys, "verify", "random", "--json", "--seed", "5", "--max-len", "6", "--genus", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["overall"] == "pass"
    assert obj["summary"]["fail"] == 0
    assert {c["status"] for c in obj["checks"]} == {"pass"}


def test_verify_random_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "random", "--json", "--seed", "9", "--max-len", "6", "--genus", "1")
    _, out2, _ = run(capsys, "verify", "random", "--json", "--seed", "9", "--max-len", "6", "--genus", "1")
    strip = lambda obj: [(c["name"], c["status"], c["details"]) for c in obj["checks"]]
    assert strip(json.loads(out1)) == strip(json.loads(out2))


# The (name, status, details) of every check at seed 0, frozen: a change
# that claims the same verify output is held to it here.
_PINNED_CHECKS = {
    "paper": [
        ("word-problem-agreement", "pass", "88381 words, both routes agree"),
        ("half-twist-relation", "pass", "tau relation and all 3 long-edge relator images verified"),
        ("half-twist-well-defined", "pass", "4256 relator images over 459 distinct graphs, all trivial"),
        ("witness-half-twist-trivial", "pass", "witness maps to the trivial braid"),
        ("witness-coxeter-certificate", "pass", "reflection image differs from the identity"),
        ("symplectic-well-defined", "pass", "70 relators over genus 2..5, plus symplectic generator images"),
        ("chain-pairing-tridiagonal", "pass", "tridiagonal with \u00b11 off-diagonal for genus 1..6"),
        ("cabling-homomorphism", "pass", "200 random pairs with q <= 3, k <= 2"),
        ("cabling-blockwise-discrepancy", "pass",
         "all 49 trivial-sigma inputs agree; 98 of 98 twisted inputs differ"),
        ("tile-algebra", "pass",
         "interchange on 100 pairs; union asymmetry; F-chain presentations match braid groups"),
        ("abelianizations", "pass",
         "braid groups k=3..8 and 81 connected graphs all give Z; disjoint pair gives Z^2"),
        ("permutation-factorization-and-mirroring", "pass",
         "100 equal-permutation pairs and 100 homomorphism pairs"),
    ],
    "random": [
        ("random-word-problem", "pass", "200 words of length <= 16, no route disagreement"),
        ("random-symplectic-images", "pass", "50 words at genus 2: symplectic images, inverses match"),
        ("random-interchange", "pass", "50 random pairs"),
        ("random-wreath-multiplicative", "pass", "25 random pairs at genus 2"),
        ("random-cabling", "pass", "200 random pairs with q <= 3, k <= 2"),
        ("random-factorization-mirroring", "pass", "100 equal-permutation pairs and 100 homomorphism pairs"),
    ],
}


@pytest.mark.parametrize("suite", sorted(_PINNED_CHECKS))
def test_verify_json_checks_are_pinned_at_seed_0(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--seed", "0", "--json")
    assert code == 0
    checks = [(c["name"], c["status"], c["details"]) for c in json.loads(out)["checks"]]
    assert checks == _PINNED_CHECKS[suite]


@pytest.mark.parametrize(
    "flags, message",
    [(("--genus", "0"), "genus"), (("--max-len", "-3"), "length")],
    ids=["genus-0", "max-len-negative"],
)
def test_verify_random_bad_arguments_exit_2(capsys, flags, message):
    code, out, err = run(capsys, "verify", "random", "--seed", "5", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--genus", "0", "b2: s1"),
        ("discrepancy", "--genus", "0", "b1: e", "b2: s1"),
        ("phi1", "--genus", "0", "b2: s1"),
        ("phi1", "--genus", "-1", "b2: s1"),
        ("omega-gamma", "--genus", "0", "b2: s1"),
        ("omega-gamma", "--genus", "-1", "b2: s1"),
    ],
    ids=["phi", "discrepancy", "phi1-0", "phi1-minus-1", "omega-gamma-0", "omega-gamma-minus-1"],
)
def test_hom_genus_below_1_exits_2_before_counting_strands(capsys, argv):
    # a strand-count message would claim genus 0 "needs 0" strands, and a
    # negative genus would ask for an identity block of negative size
    code, out, err = run(capsys, "hom", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: genus must be >= 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hom", "phi", "--genus", "\u0662", "b4: s1"), "argument --genus: invalid decimal value: '\u0662'"),
        (("hom", "phi", "--genus", "1_0", "b20: s1"), "argument --genus: invalid decimal value: '1_0'"),
        (("verify", "random", "--seed", " 3"), "argument --seed: invalid decimal value: ' 3'"),
        (("verify", "random", "--max-len", "+3"), "argument --max-len: invalid decimal value: '+3'"),
        (("tile", "mcg", "F ;\u3000F"), "error: unexpected character '\\u3000' (at position 3)"),
        (("braid", "trivial", "b3: s1\u3000s1^-1"), "error: unexpected token 's1\\u3000s1^-1' (at position 4)"),
        (("artin", "coxeter", "--tile", "F ; F", "g1\u3000g2"), "error: unknown generator 'g1\\u3000g2'"),
    ],
    ids=["arabic-indic-genus", "underscored-genus", "spaced-seed", "plus-max-len", "tile-ideographic-space",
         "braid-ideographic-space", "edge-word-ideographic-space"],
)
def test_non_ascii_digits_and_spaces_exit_2(capsys, argv, message):
    # spaces are ASCII " \t\n\r" and integers ASCII decimal in every input
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.rstrip("\n").endswith(message)


@pytest.mark.parametrize(
    "argv, spaced",
    [
        (("braid", "trivial", "\tb3:\ts1\ns1^-1\r\n"), ("braid", "trivial", "b3: s1 s1^-1")),
        (("braid", "reduce", "b4:\ts1\n\ts3^-1\r"), ("braid", "reduce", "b4: s1 s3^-1")),
        (("artin", "coxeter", "--tile", "F\n;\tF", "\tg1\r\ng2^-1\n"), ("artin", "coxeter", "--tile", "F ; F", "g1 g2^-1")),
        (("tile", "tree", "(((F\t+\nP)\r\n;\tP)\n+ 1_1)\t;\rP"), ("tile", "tree", WITNESS_TILE)),
    ],
    ids=["braid-trivial", "braid-reduce", "edge-word-and-tile", "tile"],
)
def test_tabs_and_newlines_separate_tokens(capsys, argv, spaced):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *spaced)


def _run_under_a_memory_limit(*args):
    # Run only under an address-space limit: these inputs ask for about a
    # trillion list slots, and some paths would take them one at a time.
    # ``args`` go to a fresh Python interpreter.
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(braidtiles.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit_memory,
    )


@pytest.mark.parametrize("argv", [("tile", "tree", "1_1000000000000")], ids=["tile-tree"])
def test_oversized_input_exits_3_in_a_fresh_interpreter(argv):
    proc = _run_under_a_memory_limit("-m", "braidtiles.cli", *argv)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_tile_mcg_counts_an_oversized_identity_in_a_fresh_interpreter():
    # the point count walks the expression and never draws its identity wires
    proc = _run_under_a_memory_limit("-m", "braidtiles.cli", "tile", "mcg", "1_1000000000000")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("0 marked points; ")
    assert proc.stderr == ""


def test_oversized_strand_count_reduces_in_a_fresh_interpreter():
    # handle reduction allocates by the word's letters, not its strands
    proc = _run_under_a_memory_limit("-m", "braidtiles.cli", "braid", "reduce", "b1000000000000: s1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "b1000000000000: s1\n"
    assert proc.stderr == ""


def test_oversized_strand_count_empty_word_is_trivial_in_a_fresh_interpreter():
    # the cross-check keeps coordinates only for the indices the word uses
    big = "s999999999999"
    cases = [
        (("trivial", "b1000000000000: e"), "true\n"),
        (("trivial", f"b1000000000000: {big}"), "false\n"),
        (("trivial", f"b1000000000000: s1 {big} s1^-1 {big}^-1"), "true\n"),
        (("equal", "b1000000000000: s999999999998 s999999999999 s999999999998",
          "b1000000000000: s999999999999 s999999999998 s999999999999"), "true\n"),
    ]
    for argv, expected in cases:
        proc = _run_under_a_memory_limit("-m", "braidtiles.cli", "braid", *argv)
        assert proc.returncode == 0, (argv, proc.stderr[-2000:])
        assert proc.stdout == expected, argv
        assert proc.stderr == ""


def test_oversized_strand_count_explicit_oracle_in_a_fresh_interpreter():
    # the library calls keep the CLI's policy and allocate nothing per strand
    proc = _run_under_a_memory_limit("-c", (
        "from braidtiles.braid import BraidWord, equal, is_trivial\n"
        "print(is_trivial(BraidWord(10**12, ())))\n"
        "print(equal(BraidWord(10**12, (1,)), BraidWord(10**12, (1,))))\n"
    ))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "True\nTrue\n"
    assert proc.stderr == ""


def _bareiss_det(rows):
    """Fraction-free Gaussian elimination over Python ints; independent of
    braidtiles."""
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _dense(n, seed):
    rng = random.Random(seed)
    return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]


def test_dense_smith_diagonal_in_a_fresh_interpreter():
    # a fresh interpreter with a timeout, so an elimination whose entries blow up fails the run instead of hanging it
    cases = [_dense(14, 14), _dense(30, 30)]
    proc = _run_under_a_memory_limit("-c", (
        "import json, sys\n"
        "from braidtiles.linalg import ExactMatrix, smith_normal_form\n"
        "print(json.dumps([[smith_normal_form(ExactMatrix.from_rows(rows)),\n"
        "                   smith_normal_form(ExactMatrix.from_rows(list(zip(*rows))))]\n"
        "                  for rows in json.loads(sys.argv[1])]))\n"
    ), json.dumps(cases))
    assert proc.returncode == 0, proc.stderr[-2000:]
    for rows, (diag, diag_t) in zip(cases, json.loads(proc.stdout)):
        assert diag == diag_t
        assert math.prod(diag) == abs(_bareiss_det(rows))
        assert all(d >= 0 for d in diag)
        assert all(diag[k + 1] % diag[k] == 0 for k in range(len(diag) - 1) if diag[k])


def test_dense_presentation_abelianizes_in_a_fresh_interpreter():
    rows = _dense(14, 14)
    det = _bareiss_det(rows)
    assert det != 0
    relators = [[g if e > 0 else -g for g, e in enumerate(row, start=1) for _ in range(abs(e))] for row in rows]
    pres = json.dumps({"generators": [f"x{i}" for i in range(1, 15)], "relators": relators})
    proc = _run_under_a_memory_limit("-m", "braidtiles.cli", "artin", "abelianize", "--json", "--presentation", pres)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["free_rank"] == 0
    assert math.prod(result["torsion"]) == abs(det)


def test_wide_sparse_presentation_abelianizes_in_a_fresh_interpreter():
    # 20,000 generators and relators with two letters or fewer: the cost is
    # set by the nonzeros, so no generators x relators matrix is made.  The
    # argv is built in the child, since one OS argument is capped at 128 KiB.
    proc = _run_under_a_memory_limit("-c", (
        "import json, sys\n"
        "from braidtiles.cli import main\n"
        "n = 20000\n"
        "relators = [[i, -(i + 1)] for i in range(1, n)] + [[n, n]]\n"
        "pres = {'generators': [f'x{i}' for i in range(1, n + 1)], 'relators': relators}\n"
        "sys.exit(main(['artin', 'abelianize', '--presentation', json.dumps(pres)]))\n"
    ))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "Z/2\n"
    assert proc.stderr == ""


def test_many_torsion_relators_abelianize_in_a_fresh_interpreter():
    # x_i^2 over 4,000 generators: every pivot is a 2 and no row holds an
    # entry 2 does not divide, so a search for such a row at each pivot
    # would cost rows x pivots (seconds); the elimination itself takes
    # milliseconds.  The child times the call, apart from its start-up.
    proc = _run_under_a_memory_limit("-c", (
        "import json, time\n"
        "from braidtiles.artin import Presentation, abelianization\n"
        "n = 4000\n"
        "pres = Presentation(tuple(f'x{i}' for i in range(1, n + 1)), tuple((i, i) for i in range(1, n + 1)))\n"
        "start = time.perf_counter()\n"
        "result = abelianization(pres)\n"
        "print(json.dumps([time.perf_counter() - start, result.to_json_obj()]))\n"
    ))
    assert proc.returncode == 0, proc.stderr[-2000:]
    seconds, result = json.loads(proc.stdout)
    assert result == {"free_rank": 0, "torsion": [2] * 4000}
    assert seconds < 1.0, seconds


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
