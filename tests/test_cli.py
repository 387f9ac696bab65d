import json
import math
import os

import numpy as np
import pytest

from knapgreedy import load_instance
from knapgreedy.cli import main

from conftest import reference_curvature, reference_opt

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "worked_example.json")
DPP_FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "dpp_small.json")
CUT_FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "cut_small.json")


def write_instance(tmp_path, doc, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestSolve:
    def test_fixture_value(self, capsys):
        code = main(["solve", "--instance", FIXTURE, "--lambda", "1.0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 3.25
        assert doc["chosen"] == [4, 0]
        assert doc["which"] == "greedy-sigma"

    def test_json_out_file(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = main(["solve", "--instance", FIXTURE, "--lambda", "1.0", "--json-out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["value"] == 3.25

    def test_scripted_updates(self, tmp_path, capsys):
        stream = tmp_path / "updates.json"
        stream.write_text(json.dumps([{"at_call": 30, "weights": [3.0]}]))
        code = main(
            ["solve", "--instance", FIXTURE, "--lambda", "1.0", "--updates", str(stream)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 4.0

    def test_update_before_the_first_step_then_lazy_finish(self, tmp_path, capsys):
        # the update lands after the 5-call singleton scan and leaves 0, 1
        # and 4 cheap; the lazy finish takes 4 for free, and 0 and 1 no
        # longer fit beside it, so they are never evaluated: 5 calls.
        # Stepping eagerly takes 3 + 2 + 1 calls
        stream = tmp_path / "updates.json"
        stream.write_text(json.dumps([{"at_call": 2, "weights": [1.0]}]))
        code = main(
            ["solve", "--instance", FIXTURE, "--lambda", "1.0", "--updates", str(stream)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["chosen"], doc["value"], doc["oracle_calls"]) == ([4], 3.0, 5)

    @pytest.mark.parametrize("bad, message", [
        ("[NaN]", "non-finite weight for knapsack 0"),
        ("[-1.0]", "negative weight for knapsack 0"),
        ("5", "dimension mismatch: weights shape (), costs rows 1"),
        ("[[1.0]]", "dimension mismatch: weights shape (1, 1), costs rows 1"),
        ('["x"]', "weights of update 0 must hold only numbers"),
        ("[[1.0], 2.0]", "weights of update 0 must hold only numbers, in rows of equal length"),
    ], ids=["NaN", "-1.0", "scalar", "nested", "string", "ragged"])
    def test_bad_update_weight_exit_2(self, tmp_path, capsys, bad, message):
        stream = tmp_path / "updates.json"
        stream.write_text('[{"at_call": 30, "weights": %s}]' % bad)
        code = main(
            ["solve", "--instance", FIXTURE, "--lambda", "1.0", "--updates", str(stream)]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("stream, message", [
        ('[{"at_call": 2.9, "weights": [1.0]}]', "at_call of update 0 must be a whole number, got 2.9"),
        ('[{"at_call": 30, "weights": [3.0]}, {"at_call": 2, "weights": [1.0]}]',
         "update stream must be sorted by at_call"),
        ('{"at_call": 2, "weights": [1.0]}', "update stream must be a JSON list, got dict"),
        ('[[2, [1.0]]]', "update 0 must be a JSON object, got list"),
        ('[{"at_call": true, "weights": [1.0]}]', "at_call of update 0 must be a whole number, got True"),
    ], ids=["fractional-at_call", "unsorted", "object-stream", "list-update", "true-at_call"])
    def test_bad_update_stream_exit_2(self, tmp_path, capsys, stream, message):
        # unchecked, int() applies an update at 2.9 at call 2, and a stream
        # of another shape raises a TypeError (exit 1, with a traceback)
        path = tmp_path / "updates.json"
        path.write_text(stream)
        code = main(["solve", "--instance", FIXTURE, "--lambda", "1.0", "--updates", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, message in captured.err) == (2, "", True)

    def test_whole_float_fields_stay_legal(self, tmp_path, capsys):
        doc = json.loads(open(FIXTURE).read())
        doc.update(n=5.0, k=1.0)
        stream = tmp_path / "updates.json"
        outs = []
        for path, at_call in ((FIXTURE, 2), (write_instance(tmp_path, doc), 2.0)):
            stream.write_text(json.dumps([{"at_call": at_call, "weights": [1.0]}]))
            assert main(["solve", "--instance", path, "--lambda", "1.0", "--updates", str(stream)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_pretty_output(self, capsys):
        assert main(["solve", "--instance", FIXTURE, "--lambda", "1.0"]) == 0
        plain = capsys.readouterr().out
        assert main(["solve", "--instance", FIXTURE, "--lambda", "1.0", "--pretty"]) == 0
        pretty = capsys.readouterr().out
        assert pretty.count("\n") > plain.count("\n") == 1
        assert json.loads(pretty) == json.loads(plain)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["solve", "--instance", str(p), "--lambda", "1.0"]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "--instance", "/nonexistent.json", "--lambda", "1.0"]) == 2

    def test_lambda_out_of_range_exit_2(self, capsys):
        assert main(["solve", "--instance", FIXTURE, "--lambda", "0.5"]) == 2

    def test_degenerate_instance_exit_3(self, tmp_path, capsys):
        path = write_instance(
            tmp_path,
            {
                "n": 2,
                "k": 1,
                "costs": [[5.0, 5.0]],
                "weights": [1.0],
                "objective": {"kind": "modular", "values": [1.0, 1.0]},
            },
        )
        assert main(["solve", "--instance", path, "--lambda", "1.0"]) == 3


@pytest.mark.parametrize("objective, size", [
    ({"kind": "modular", "values": [0.25, 0.25, 1.0]}, 3),
    ({"kind": "dpp", "L": np.eye(4).tolist()}, 4),
    ({"kind": "entropy", "Sigma": np.eye(6).tolist()}, 6),
], ids=["modular", "dpp", "entropy"])
def test_objective_of_another_size_exit_2(tmp_path, capsys, objective, size):
    doc = json.loads(open(FIXTURE).read())  # n = 5
    doc["objective"] = objective
    path = write_instance(tmp_path, doc)
    trace = tmp_path / "trace.csv"
    for cmd in (["solve", "--lambda", "1.0"], ["oracle", "--lambda", "1.0"], ["curvature"],
                ["simulate", "--tau", "5", "--sigma", "0.1", "--out", str(trace)]):
        assert main([cmd[0], "--instance", path] + cmd[1:]) == 2
        assert "size %d but n=5" % size in capsys.readouterr().err
    assert not trace.exists()


class TestInstanceFiles:
    PARTITION = {
        "n": 4,
        "partition": {"labels": [0, 0, 1, 1], "budgets": [1, 1]},
        "objective": {"kind": "modular", "values": [1.0, 2.0, 3.0, 4.0]},
    }

    def test_partition_expands_to_unit_cost_knapsacks(self, tmp_path, capsys):
        path = write_instance(tmp_path, self.PARTITION)
        cons = load_instance(path).constraints
        assert cons.costs.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]
        assert cons.weights.tolist() == [1, 1]
        assert main(["solve", "--instance", path, "--lambda", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["chosen"], doc["value"]) == ([3, 1], 6.0)
        assert main(["oracle", "--instance", path, "--lambda", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["opt_set"], doc["opt_value"], doc["passed"]) == ([1, 3], 6.0, True)

    def test_partition_labels_of_the_wrong_length(self, tmp_path, capsys):
        doc = json.loads(json.dumps(self.PARTITION))
        doc["partition"]["labels"] = [0, 0, 1]
        path = write_instance(tmp_path, doc)
        for cmd in (["solve", "--lambda", "1.0"], ["oracle", "--lambda", "1.0"], ["curvature"]):
            assert main([cmd[0], "--instance", path] + cmd[1:]) == 2
            assert "cost matrix has 3 columns, ground set has 4" in capsys.readouterr().err

    @pytest.mark.parametrize("k, message", [
        (3, "dimension mismatch: k=3 but 2 cost rows"),
        (2.5, "k must be a whole number, got 2.5"),
    ])
    def test_partition_file_reads_k_too(self, tmp_path, capsys, k, message):
        # k counts the knapsacks, one per group; it was ignored beside a partition
        doc = dict(self.PARTITION, k=k)
        path = write_instance(tmp_path, doc)
        assert main(["solve", "--instance", path, "--lambda", "2.0"]) == 2
        assert message in capsys.readouterr().err
        doc["k"] = 2.0
        assert load_instance(write_instance(tmp_path, doc)).constraints.k == 2

    def test_sigma_csv_resolves_next_to_the_instance_file(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 4))
        Sigma = A @ A.T / 4 + np.eye(4)
        data = tmp_path / "data"
        data.mkdir()
        (data / "sigma.csv").write_text(
            "\n".join(",".join(repr(x) for x in row) for row in Sigma.tolist()) + "\n"
        )
        doc = {"n": 4, "k": 1, "costs": [[1.0] * 4], "weights": [2.0],
               "objective": {"kind": "entropy", "Sigma": Sigma.tolist()}}
        inline = write_instance(data, doc, "inline.json")
        doc["objective"] = {"kind": "entropy", "Sigma_csv": "sigma.csv"}
        from_csv = write_instance(data, doc, "csv.json")
        monkeypatch.chdir(tmp_path)  # no sigma.csv here
        assert np.array_equal(load_instance(from_csv).objective.Sigma, Sigma)
        outs = []
        for path in (inline, from_csv):
            for cmd in (["solve", "--lambda", "1.0"], ["curvature"]):
                assert main([cmd[0], "--instance", path] + cmd[1:]) == 0
                outs.append(capsys.readouterr().out)
        assert outs[:2] == outs[2:]

    def test_dpp_jitter_reaches_the_objective(self, tmp_path, capsys):
        doc = {"n": 3, "k": 1, "costs": [[1.0] * 3], "weights": [1.0],
               "objective": {"kind": "dpp", "L": np.diag([1.0, 2.0, 3.0]).tolist()}}
        for jitter in (None, 0.5):
            if jitter is not None:
                doc["objective"]["jitter"] = jitter
            path = write_instance(tmp_path, doc)
            assert load_instance(path).objective.jitter == (jitter or 1e-10)
            assert main(["solve", "--instance", path, "--lambda", "1.0"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["chosen"] == [2]
            assert out["value"] == pytest.approx(math.log(3.0 + (jitter or 0.0)), abs=1e-9)

    @pytest.mark.parametrize("change, message", [
        ({"k": 2}, "dimension mismatch: k=2 but 1 cost rows"),
        ({"objective": {"kind": "submodular"}}, "unknown objective kind: 'submodular'"),
        ({"objective": {"values": [1.0] * 5}}, "unknown objective kind: None"),
    ], ids=["k-disagrees", "unknown-kind", "missing-kind"])
    def test_bad_form_exit_2(self, tmp_path, capsys, change, message):
        doc = json.loads(open(FIXTURE).read())
        doc.update(change)
        path = write_instance(tmp_path, doc)
        for cmd in (["solve", "--lambda", "1.0"], ["oracle", "--lambda", "1.0"], ["curvature"]):
            assert main([cmd[0], "--instance", path] + cmd[1:]) == 2
            assert message in capsys.readouterr().err


    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "instance file must be a JSON object, got list"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": "modular"}',
         "objective must be a JSON object, got str"),
        ('{"n": 2, "partition": [[0, 0], [1]], "objective": {"kind": "modular", "values": [1, 1]}}',
         "partition must be a JSON object, got list"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "dpp", "qd": [1, 1]}}',
         "qd must be a JSON object, got list"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "dpp", '
         '"qd": {"q": [1, 1], "features": [[0], [1]], "sigmas": {"a": 1}}}}',
         "qd features must be a JSON object, got list"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "dpp", '
         '"qd": {"q": [1, 1], "features": {"a": [[0], [1]]}, "sigmas": 1}}}',
         "qd sigmas must be a JSON object, got int"),
        ('{"n": 2, "partition": {"labels": 3, "budgets": [1]}, "objective": {"kind": "modular", "values": [1, 1]}}',
         "partition labels must be a JSON list, got int"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "cut", "arcs": 5}}',
         "arcs must be a JSON list, got int"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "cut", "arcs": [5]}}',
         "arc 0 must be a JSON list, got int"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "dpp", '
         '"qd": {"q": [1, 1], "features": {"a": 5}, "sigmas": {"a": 1}}}}',
         "feature family 'a' must be an (n, d) matrix, got shape ()"),
        ('{"n": 2, "k": 1, "costs": [[1, 1], [1]], "weights": [2], "objective": {"kind": "modular", "values": [1, 1]}}',
         "costs must hold only numbers, in rows of equal length"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": ["x"], "objective": {"kind": "modular", "values": [1, 1]}}',
         "weights must hold only numbers"),
        ('{"n": 2, "partition": {"labels": [0, 0], "budgets": ["x"]}, "objective": {"kind": "modular", "values": [1, 1]}}',
         "partition budgets must hold only numbers"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "dpp", "L": [[1, 0], [0]]}}',
         "L must hold only numbers"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "entropy", "Sigma": [[1], [0, 1]]}}',
         "Sigma must hold only numbers"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "dpp", '
         '"qd": {"q": [1, 1], "features": {"a": [[0], [1, 2]]}, "sigmas": {"a": 1}}}}',
         "feature family 'a' must hold only numbers"),
        ('{"n": 2, "k": 1, "costs": [[1, 1]], "weights": [2], "objective": {"kind": "cut", "arcs": [[0, 1, "x"]]}}',
         "arc weights must hold only numbers"),
    ], ids=["list-file", "string-objective", "list-partition", "list-qd", "list-features", "number-sigmas",
            "number-labels", "number-arcs", "number-arc", "number-feature-matrix", "ragged-costs",
            "string-weight", "string-budget", "ragged-L", "ragged-Sigma", "ragged-feature-matrix",
            "string-arc-weight"])
    def test_wrong_json_shape_exit_2(self, tmp_path, capsys, text, message):
        # unchecked, each raises a TypeError, an AttributeError or an
        # IndexError (exit 1, with a traceback), or a ragged or non-numeric
        # array exits 2 with numpy's error, which names no field
        path = tmp_path / "inst.json"
        path.write_text(text)
        for cmd in (["solve", "--lambda", "1.0"], ["oracle", "--lambda", "1.0"], ["curvature"]):
            assert main([cmd[0], "--instance", str(path)] + cmd[1:]) == 2
            captured = capsys.readouterr()
            assert (captured.out, message in captured.err) == ("", True)


class TestSimulate:
    def test_zero_noise_run(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        code = main(
            [
                "simulate", "--instance", FIXTURE, "--tau", "100", "--sigma", "0.0",
                "--updates", "50", "--seed", "3", "--lambda", "1.0", "--out", out,
            ]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("update,weight_0,")
        assert len(lines) == 51
        summary = json.loads(open(out + ".summary.json").read())
        assert summary["dgreedy"]["mean"] == pytest.approx(3.25)
        assert summary["config"]["seed"] == 3

    def test_rerun_byte_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / ("trace_%s.csv" % tag)
            code = main(
                [
                    "simulate", "--instance", FIXTURE, "--tau", "50", "--sigma", "0.1",
                    "--updates", "20", "--seed", "9", "--lambda", "1.0",
                    "--initial-fraction", "0.4", "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        a = (tmp_path / "trace_a.csv.summary.json").read_bytes()
        b = (tmp_path / "trace_b.csv.summary.json").read_bytes()
        assert a == b

    def test_a_file_in_which_nothing_fits_exit_0(self, tmp_path, capsys):
        # solve and oracle reject it (exit 3); the race records 0 until a
        # drift admits an element
        path = write_instance(tmp_path, {
            "n": 2, "k": 1, "costs": [[5.0, 5.0]], "weights": [1.0],
            "objective": {"kind": "modular", "values": [1.0, 1.0]},
        })
        for cmd in (["solve"], ["oracle"], ["oracle", "--assert-value", "0"]):
            assert main(cmd + ["--instance", path, "--lambda", "1.0"]) == 3
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--instance", path, "--tau", "5", "--sigma", "0.1",
                     "--updates", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 6

    def test_pretty_is_not_an_option(self, tmp_path, capsys):
        # simulate writes files only; it never read --pretty
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--instance", FIXTURE, "--tau", "5", "--sigma", "0.1",
                  "--out", str(out), "--pretty"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tau_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        code = main(
            ["simulate", "--instance", FIXTURE, "--tau", "0", "--sigma", "0.1", "--out", out]
        )
        assert code == 2

    @pytest.mark.parametrize("updates", ["0", "-3"])
    def test_no_updates_exit_2_before_any_work(self, tmp_path, capsys, updates):
        out = tmp_path / "t.csv"
        code = main(
            ["simulate", "--instance", FIXTURE, "--tau", "10", "--sigma", "0.1",
             "--updates", updates, "--out", str(out)]
        )
        assert code == 2
        assert "n_updates must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOracle:
    def test_fixture_exact(self, capsys):
        code = main(["oracle", "--instance", FIXTURE, "--lambda", "1.0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["opt_value"] == 3.25
        assert doc["opt_set"] == [0, 4]
        assert doc["ratio"] == pytest.approx(1.0)
        assert doc["alpha"] == 0.0
        assert doc["bound"] == pytest.approx((1 - math.exp(-1)) / 3)
        assert doc["passed"] is True

    def test_asserted_low_value_exit_1(self, capsys):
        code = main(
            ["oracle", "--instance", FIXTURE, "--lambda", "1.0", "--assert-value", "0.01"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False

    def test_dpp_fixture_matches_the_reference_loops(self, capsys):
        inst = load_instance(DPP_FIXTURE)
        opt_value, opt_set = reference_opt(inst)
        alpha = reference_curvature(inst.objective.clone(), inst.ground.n)
        assert main(["oracle", "--instance", DPP_FIXTURE, "--lambda", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["opt_value"], doc["opt_set"], doc["alpha"]) == (opt_value, list(opt_set), alpha)
        assert main(["curvature", "--instance", DPP_FIXTURE]) == 0
        assert json.loads(capsys.readouterr().out) == {"alpha": alpha}

    def test_cut_fixture_pinned(self, capsys):
        # Arc weights over 16 decades, so the sums round: the same bits on
        # every Python, where sum() with compensation would round apart.
        assert main(["oracle", "--instance", CUT_FIXTURE, "--lambda", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["opt_value"], doc["opt_set"]) == (2771203.141363738, [2, 3, 4])
        assert doc["alpha"] == 107927.3423742026
        assert main(["curvature", "--instance", CUT_FIXTURE]) == 0
        assert json.loads(capsys.readouterr().out) == {"alpha": 107927.3423742026}

    @pytest.mark.parametrize("field, value, message", [
        ("weights", [float("nan")], "non-finite weight for knapsack 0"),
        ("weights", [-1.0], "negative weight for knapsack 0"),
        ("costs", [[1, -1, 2, 2, 1]], "negative cost for element 1 in knapsack 0"),
        # nothing fits either, but a malformed file exits 2 before the
        # degeneracy test can exit 3
        ("costs", [[math.nan] * 5], "non-finite cost for element 0 in knapsack 0"),
    ], ids=["nan-budget", "negative-budget", "negative-cost", "nan-costs"])
    def test_malformed_instance_exit_2(self, tmp_path, capsys, field, value, message):
        # unchecked, the bad budgets pass with a vacuous OPT of 0 and the
        # negative cost reports the infeasible [1, 2, 4] as OPT
        doc = json.loads(open(FIXTURE).read())
        doc[field] = value
        path = write_instance(tmp_path, doc)
        for extra in ([], ["--assert-value", "0"]):
            assert main(["oracle", "--instance", path, "--lambda", "1.0"] + extra) == 2
            captured = capsys.readouterr()
            assert (captured.out, message in captured.err) == ("", True)

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
    def test_bad_dpp_jitter_exit_2(self, tmp_path, capsys, jitter):
        # unchecked, a NaN jitter solves to 0.0 and passes the oracle
        # vacuously, and an infinite one prints "value": Infinity
        doc = json.loads(open(DPP_FIXTURE).read())
        doc["objective"]["jitter"] = jitter
        path = write_instance(tmp_path, doc)
        for command in (["solve"], ["oracle"]):
            assert main(command + ["--instance", path, "--lambda", "1.0"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, "jitter must be finite" in captured.err) == ("", True)

    @pytest.mark.parametrize("objective, message", [
        ({"kind": "dpp", "L": np.diag([math.inf, 1, 1, 1, 1]).tolist()}, "L must be finite"),
        ({"kind": "entropy", "Sigma": np.diag([1, 1, math.nan, 1, 1]).tolist()}, "Sigma must be finite"),
        ({"kind": "modular", "values": [1, math.inf, 1, 1, 1]}, "non-finite modular value for element 1"),
        ({"kind": "modular", "values": [1, 1, 1, math.nan, 1]}, "non-finite modular value for element 3"),
        ({"kind": "cut", "arcs": [[0, 1, 1.0], [2, 3, math.inf]]}, "arc weight on (2, 3) must be finite"),
        ({"kind": "cut", "arcs": [[4, 0, math.nan]]}, "arc weight on (4, 0) must be finite"),
    ], ids=["dpp-inf", "entropy-nan", "modular-inf", "modular-nan", "cut-inf", "cut-nan"])
    def test_non_finite_objective_data_exit_2(self, tmp_path, capsys, objective, message):
        # unchecked, an infinite entry makes solve print "value": Infinity,
        # which is no JSON, and a NaN modular value or arc weight is ignored
        doc = json.loads(open(FIXTURE).read())
        doc["objective"] = objective
        path = write_instance(tmp_path, doc)
        for command in (["solve"], ["oracle"]):
            assert main(command + ["--instance", path, "--lambda", "1.0"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, message in captured.err) == ("", True)

    @pytest.mark.parametrize("change, message", [
        ({"objective": {"kind": "cut", "arcs": [[0, 1, 1.0], [0.7, 1.9, 1.0]]}},
         "tail of arc 1 must be a whole number, got 0.7"),
        ({"objective": {"kind": "cut", "arcs": [[4, 2.5, 1.0]]}},
         "head of arc 0 must be a whole number, got 2.5"),
        ({"costs": None, "weights": None, "partition": {"labels": [0, 0.9, 1.5, 1, 1], "budgets": [1, 1]}},
         "partition label of element 1 must be a whole number, got 0.9"),
        ({"objective": {"kind": "modular", "values": [[0.25, 0.25, 1.0, 1.0, 3.0]]}},
         "modular values must be one-dimensional, got shape (1, 5)"),
        ({"objective": {"kind": "modular", "values": [[0.25, math.nan, 1.0, 1.0, 3.0]]}},
         "modular values must be one-dimensional, got shape (1, 5)"),
        ({"n": 5.5}, "n must be a whole number, got 5.5"),
        ({"k": 1.9}, "k must be a whole number, got 1.9"),
        ({"n": True}, "n must be a whole number, got True"),
        ({"objective": {"kind": "cut", "arcs": [[0, 1, [1.0]]]}}, "arc weights must be numbers, one per arc"),
        ({"objective": {"kind": "dpp", "L": np.eye(5).tolist(), "jitter": [0.001]}},
         "jitter must be a number, got [0.001]"),
        ({"objective": {"kind": "dpp", "L": np.eye(5).tolist(), "jitter": "x"}}, "jitter must be a number, got 'x'"),
        ({"objective": {"kind": "dpp", "qd": {"q": [1] * 5, "features": {"a": [[0], [1], [2], [3], [4]]},
                                              "sigmas": {"a": [1]}}}},
         "bandwidth of feature family 'a' must be a number, got [1]"),
        ({"objective": {"kind": "dpp", "qd": {"q": [1] * 5, "features": {"a": [[0], [1], [2], [3], [4]]},
                                              "sigmas": {"a": "x"}}}},
         "bandwidth of feature family 'a' must be a number, got 'x'"),
    ], ids=["cut-tail", "cut-head", "partition-label", "nested-modular", "nested-modular-nan", "n", "k",
            "true-n", "nested-arc-weight", "list-jitter", "string-jitter", "list-bandwidth", "string-bandwidth"])
    def test_truncated_or_nested_data_exit_2(self, tmp_path, capsys, change, message):
        # unchecked, int() truncates a fractional endpoint, label, n or k
        # and the file solves as another instance; nested values fail in
        # numpy, and a NaN among them was named by its flattened index
        doc = json.loads(open(FIXTURE).read())
        doc.update(change)
        doc = {key: value for key, value in doc.items() if value is not None}
        path = write_instance(tmp_path, doc)
        for cmd in (["solve", "--lambda", "1.0"], ["oracle", "--lambda", "1.0"], ["curvature"]):
            assert main([cmd[0], "--instance", path] + cmd[1:]) == 2
            captured = capsys.readouterr()
            assert (captured.out, message in captured.err) == ("", True)

    def test_too_large_exit_2(self, tmp_path, capsys):
        n = 25
        path = write_instance(
            tmp_path,
            {
                "n": n,
                "k": 1,
                "costs": [[1.0] * n],
                "weights": [5.0],
                "objective": {"kind": "modular", "values": [1.0] * n},
            },
        )
        assert main(["oracle", "--instance", path, "--lambda", "1.0"]) == 2


class TestCurvature:
    def test_modular_zero(self, capsys):
        code = main(["curvature", "--instance", FIXTURE])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == 0.0

    def test_cut_three_cycle_hand_value(self, tmp_path, capsys):
        # witness: adding 2 to {} gains 0.5 but to {0, 1} loses 2,
        # so alpha = 1 - (-2)/0.5 = 5
        path = write_instance(
            tmp_path,
            {
                "n": 3,
                "k": 1,
                "costs": [[1.0, 1.0, 1.0]],
                "weights": [2.0],
                "objective": {"kind": "cut", "arcs": [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 0.5]]},
            },
        )
        code = main(["curvature", "--instance", path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] == 5.0

    def test_entropy_reports_spectral_bound(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(4, 4))
        Sigma = (A @ A.T / 4 + np.eye(4)).tolist()
        path = write_instance(
            tmp_path,
            {
                "n": 4,
                "k": 1,
                "costs": [[1.0] * 4],
                "weights": [2.0],
                "objective": {"kind": "entropy", "Sigma": Sigma},
            },
        )
        code = main(["curvature", "--instance", path])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha"] <= doc["entropy_upper_bound"] + 1e-6
