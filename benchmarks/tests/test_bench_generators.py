"""Ground truth of the benchmark's generators, checked against the package's
own oracles, and the benchmark's declared metrics.

    python3 -m pytest benchmarks/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from braidtiles import artin, braid, homs, linalg, tiles  # noqa: E402


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("length", [16, 32, 64, 200])
def test_trivial_words_are_trivial(n, length):
    rng = random.Random(n * 1000 + length)
    for _ in range(5):
        w = gen.trivial_word(rng, n, length)
        assert len(w) == length
        assert gen.exponent_sum(w) == 0
        assert gen.permutation(n, w) == tuple(range(n))
        word = braid.BraidWord(n, tuple(w))
        if length <= 32:
            assert braid.artin_action(word).is_identity()
        assert braid.is_trivial(word)


@pytest.mark.parametrize("kind", [0, 1, 2])
@pytest.mark.parametrize("length", [16, 48, 200])
def test_nontrivial_words_are_certified_and_nontrivial(kind, length):
    rng = random.Random(kind * 1000 + length)
    for n in (4, 5, 6):
        w = gen.nontrivial_word(rng, n, length, kind)
        assert len(w) == length
        assert gen.certified_nontrivial(n, w, kind)
        word = braid.BraidWord(n, tuple(w))
        if length <= 16:
            assert not braid.artin_action(word).is_identity()
        assert not braid.is_trivial(word)


def test_certificates_reject_the_other_kinds():
    assert not gen.certified_nontrivial(3, (1, -1), 0)
    assert not gen.certified_nontrivial(3, (1, -1), 1)
    assert not gen.certified_nontrivial(3, (1,), 2)


def test_permutation_matches_the_package():
    rng = random.Random(3)
    for _ in range(20):
        letters = gen.random_letters(rng, 5, 30)
        perm = braid.underlying_permutation(braid.BraidWord(5, tuple(letters)))
        assert tuple(x - 1 for x in perm.images) == gen.permutation(5, letters)


def test_same_seed_same_inputs():
    a = gen.word_case(random.Random(9), 5, 64, trivial=False)
    b = gen.word_case(random.Random(9), 5, 64, trivial=False)
    assert a == b
    assert gen.same_expr(gen.random_forest(random.Random(9), 200), gen.random_forest(random.Random(9), 200))


def test_symplectic_and_pairing_identities():
    rng = random.Random(4)
    g = 3
    m = homs.braid_to_symplectic(g, braid.BraidWord(2 * g, tuple(gen.random_letters(rng, 2 * g, 40))))
    j = gen.standard_j(g)
    assert gen.matmul(gen.matmul(gen.transpose(m.entries), j), m.entries) == j
    assert linalg.is_symplectic(m, linalg.SymplecticForm(g))
    graph = workloads.chain_graph(5)
    om = gen.path_pairing(9)
    assert homs.EdgeTransvectionRep.from_graph(graph).pairing.entries == om
    image = homs.edge_transvection_image(graph, tuple(gen.random_letters(rng, 10, 21)))
    assert gen.matmul(gen.matmul(image.entries, om), gen.transpose(image.entries)) == om
    trivial = tuple(gen.trivial_word(rng, 10, 30))
    assert homs.edge_transvection_image(graph, trivial).is_identity()
    assert artin.certify_nontrivial(graph, trivial) is artin.Certificate.INCONCLUSIVE


@pytest.mark.parametrize("max_atoms", [3, 4, 5])
def test_tile_counts_match_the_enumeration(max_atoms):
    assert gen.tile_counts(max_atoms) == sum(1 for _ in tiles.enumerate_tiles(max_atoms))


def test_random_forests_have_the_atoms_and_graph_asked_for():
    rng = random.Random(5)
    for atoms in (1, 50, 300):
        forest = gen.random_forest(rng, atoms)
        counts = gen.atom_counts(forest)
        assert sum(counts.values()) == atoms
        nf = tiles.normal_form(forest)
        assert nf.atom_count == atoms
        graph = tiles.marked_graph_of(nf)
        assert graph.points == 2 * counts["F"] + counts["P"]
        assert gen.is_forest_max_degree_3(graph.points, graph.edges)
        assert graph.is_forest() and graph.max_degree() <= 3
        assert tiles.normal_form(gen.interchange_rewrite(forest)) == nf


def test_structural_helpers():
    deep = gen.chain(50)
    assert gen.same_expr(tiles.parse_tile_expression(tiles.format_tile_expression(deep)), deep)
    assert not gen.same_expr(deep, gen.chain(49))
    assert gen.atom_counts(deep) == {"D": 0, "F": 50, "P": 0}
    assert not gen.is_forest_max_degree_3(3, ((1, 2), (2, 3), (1, 3)))
    assert not gen.is_forest_max_degree_3(5, ((1, 2), (1, 3), (1, 4), (1, 5)))


def test_percentile_interpolates_between_neighbours():
    values = list(range(1, 102))
    assert run.percentile(values, 0.5) == 51
    assert run.percentile(values, 0.9) == 91
    assert run.percentile([1.0, 2.0], 0.5) == 1.5
    assert run.percentile([3.0], 0.9) == 3.0


@pytest.mark.parametrize("name", ["words", "matrices", "tiles"])
def test_every_operation_passes_its_check(name):
    batch = run.Batch(workloads.BUILDERS[name](0))
    batch.run_pass()
    assert batch.failed == 0
    assert batch.attempted == len(batch.ops)


def test_tracer_patches_call_sites_and_restores_them():
    original = (braid.is_trivial, braid.handle_reduce, artin.smith_normal_form, linalg.ExactMatrix.__mul__)
    tracer = spans.Tracer()
    tracer.op = (1, 0)
    word = braid.BraidWord(4, tuple(gen.trivial_word(random.Random(1), 4, 32)))
    graph = workloads.chain_graph(3)
    with tracer.installed():
        assert artin.smith_normal_form is not original[2]
        assert braid.is_trivial(word)
        artin.abelianization(artin.presentation_from_graph(graph))
        assert sum(1 for _ in tiles.enumerate_tiles(2)) == gen.tile_counts(2)
    assert (braid.is_trivial, braid.handle_reduce, artin.smith_normal_form,
            linalg.ExactMatrix.__mul__) == original
    names = [s[1] for s in tracer.spans]
    assert names.count("braid.is_trivial") == 1 and names.count("braid.handle_reduce") == 1
    child = tracer.spans[names.index("braid.handle_reduce")]
    assert tracer.spans[child[4]][1] == "braid.is_trivial"
    assert names.count("tiles.enumerate") == gen.tile_counts(2) + 1  # one span per resumption
    totals = spans.aggregate(tracer.spans, {(1, 0): "T"})
    assert totals["braid.handle_reduce.letters"] == 32
    assert totals["linalg.snf.calls"] == 1 and totals["linalg.snf.cells"] == 10 * 5
    assert 0 <= totals["braid.is_trivial.self_s"] < totals["braid.is_trivial.T.s"]
    assert totals["braid.busy_s"] == pytest.approx(totals["braid.self_s"])
    assert spans.aggregate(tracer.spans, {(2, 0): "T"}) == {}


def test_a_wrong_answer_is_counted_as_failed():
    op = workloads.Op("is_trivial", "L2", False, lambda: False, lambda r: r is True)
    batch = run.Batch([op])
    batch.run_pass()
    assert batch.failed == 1


def test_a_failed_or_changed_suite_is_counted_as_failed():
    """A suite whose checks all pass still fails when it exits nonzero on
    the first pass, or when a later pass reports different details."""
    details = iter(["a", "a", "b"])

    def run_suite():
        check = {"name": "c", "status": "pass", "details": next(details), "wall_time": 0.1}
        return 1, {"summary": {"overall": "pass"}, "checks": [check]}

    op = workloads.Op("paper", "paper", True, run_suite, lambda r: r[0] == 0, parts=workloads.check_records)
    batch = run.Batch([op])
    for _ in range(3):
        batch.run_pass()
    assert (batch.attempted, batch.failed) == (3, 2)


def test_probe_rescales_each_time_by_the_samples_around_it():
    probe = reference.Probe()
    probe.mids = [float(t) for t in range(20)]
    probe.durations = [reference.NOMINAL_S * (2 if t < 10 else 4) for t in range(20)]
    assert probe.factor(0.0, 9.5) == pytest.approx(0.5)  # ten samples inside the span
    assert probe.factor(15.0, 15.1) == pytest.approx(0.25)  # the eight nearest ones
    assert probe.factor(9.0, 9.1) == pytest.approx(1 / 3)  # half slow, half fast
    batch = run.Batch([workloads.Op("is_trivial", "L2", False, lambda: True, lambda r: r is True)])
    batch.times, batch.spans = [[(0, 3.0)]], [[(0.0, 9.5)]]
    batch.rescale(probe.factor)
    assert batch.times == [[(0, pytest.approx(1.5))]]


def test_probe_samples_are_left_out_of_the_operation_they_interrupt():
    probe = reference.Probe()

    def op():
        probe._tick(None, None)  # as if the timer fired during the call
        return True

    batch = run.Batch([workloads.Op("is_trivial", "L2", False, op, lambda r: r is True)])
    probe._tick(None, None)  # a sample taken before the operation is not its time
    batch.run_pass(probe=probe)
    (start, end), = batch.spans[0]
    assert len(probe.durations) == 2 and batch.failed == 0
    assert batch.times[0][0][1] == pytest.approx(end - start - probe.durations[1])
    assert batch.times[0][0][1] > 0


def test_benchmark_json_declares_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
