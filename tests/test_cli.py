"""Command-line interface: verbs, flags, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicemarket
from slicemarket import cli, verify
from slicemarket.cli import main
from slicemarket.harness import ExperimentSpec, HarnessError
from slicemarket.workload import GenConfig, Instance, generate_instance


def spec_file(tmp_path, **overrides):
    data = {
        "algos": ["posted_price", "random"],
        "config": GenConfig(tenant_count=6, resource_count=2).to_dict(),
        "trials": 2,
        "seed": 3,
        "oracle": "auto",
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


def non_utf8_file(tmp_path):
    """A file whose first bytes are no UTF-8 text (a UTF-16 byte order mark)."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe\x00" + "{}".encode("utf-16-le"))
    return path


#: Instance files the oracle must refuse, as changes to a valid six-tenant,
#: two-resource document (None: the document wrapped in a JSON list).
MALFORMED_INSTANCES = {
    "ragged demands": {"demands": [[0.1, 0.1]] * 5 + [[0.1]]},
    "string valuations": {"valuations": "lots"},
    "unknown config key": {"config": {"tenant_count": 6, "tenants": 6}},
    "top-level list": None,
    "zero resources": {"demands": [[]] * 6, "bounds": {"lower": [], "upper": []}, "costs": []},
    "string number": {"demands": [[0.1, "0.1"]] * 6},
}


class TestRun:
    def test_spec_file(self, tmp_path, capsys):
        path = spec_file(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--spec", str(path), "--out", str(out)]) == 0
        assert (out / "trials.csv").exists()
        assert (out / "summary.csv").exists()

    def test_lp_run_loads_no_scipy_optimize(self, tmp_path):
        # the cold start of an LP run: only the HiGHS binding, not scipy.optimize
        path = spec_file(tmp_path, config=GenConfig(tenant_count=5, resource_count=2).to_dict())
        src = str(Path(slicemarket.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from slicemarket.cli import main\n"
            f"assert main(['run', '--spec', {str(path)!r}, '--oracle', 'lp', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert 'scipy.optimize._highspy._core' in sys.modules\n"
            "assert 'scipy.optimize' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert ",lp_bound," in (tmp_path / "out" / "trials.csv").read_text()

    def test_missing_spec_is_io_failure(self, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 3

    def test_directory_spec_is_io_failure(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "document",
        [{"config": "x"}, {"config": None}, {"algos": 5}, {"config": {"tenants": 5}}],
        ids=["string config", "null config", "scalar algos", "unknown config key"],
    )
    def test_misshapen_spec_is_validation_failure(self, tmp_path, capsys, document):
        with pytest.raises(HarnessError, match="malformed spec document"):
            ExperimentSpec.from_dict(document)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid spec file {path}: ")
        assert captured.err.count("\n") == 1

    def test_invalid_spec_is_validation_failure(self, tmp_path):
        path = spec_file(tmp_path, algos=["cvx"])
        assert main(["run", "--spec", str(path)]) == 2

    def test_misspelled_key_is_validation_failure(self, tmp_path, capsys):
        path = spec_file(tmp_path, algo=["cvx"])
        assert main(["run", "--spec", str(path)]) == 2
        assert "'algo'" in capsys.readouterr().err

    def test_nan_mutation_rate_is_validation_failure(self, tmp_path, capsys):
        path = spec_file(tmp_path)
        path.write_text(path.read_text()[:-1] + ', "ga_params": {"mutation_rate": NaN}}')
        assert main(["run", "--spec", str(path)]) == 2
        assert "mutation_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"trials": 2.5}, "trials"),
            ({"trials": float("nan")}, "trials"),
            ({"seed": -1}, "seed"),
            ({"node_budget": "x"}, "node_budget"),
            ({"node_budget": 0}, "node_budget"),
            ({"node_budget": True}, "node_budget"),
            ({"config": {"tenant_count": 2.5}}, "tenant_count"),
            ({"config": {"subscriber_mean": float("nan")}}, "subscriber_mean"),
            ({"config": {"subscriber_std": -1.0}}, "subscriber_std"),
            ({"config": {"top_tier_range": [2.0, float("inf")]}}, "top_tier_range"),
            ({"config": {"free_user_fraction": "0.4"}}, "free_user_fraction"),
            ({"config": {"tier_decay": "0.5"}}, "tier_decay"),
            ({"config": {"density_margin": "0.1"}}, "density_margin"),
            ({"config": {"participation": "0.5"}}, "participation"),
            ({"ga_params": {"population": 2.5}}, "population"),
            ({"ga_params": {"tournament": 1.5}}, "tournament"),
            ({"ga_params": {"elitism": 1.0}}, "elitism"),
            ({"ga_params": {"generations": True}}, "generations"),
            ({"ga_params": {"mutation_rate": "0.1"}}, "mutation_rate"),
            ({"axis": "tenants", "values": [2.5]}, "tenant_count"),
            ({"axis": "tenants", "values": [True]}, "tenant_count"),
            ({"axis": "resources", "values": [1.9]}, "resource_count"),
            ({"axis": "tenants", "values": ["a"]}, "tenant_count"),
            ({"axis": "tenants", "values": [[1, 2]]}, "tenant_count"),
            ({"axis": "demand_mean", "values": ["x"]}, "demand_mean"),
            ({"axis": "pay_level_range", "values": [5.0]}, "pay_level_range"),
            ({"config": {"top_tier_range": [2.0, 1e9]}}, "top_tier_range"),
            ({"config": {"pay_level_range": 5}}, "pay_level_range"),
            ({"config": {"pay_level_range": "ab"}}, "pay_level_range"),
        ],
        ids=[
            "fractional trials", "NaN trials", "negative seed", "string node_budget", "zero node_budget", "boolean node_budget",
            "fractional tenant_count",
            "NaN subscriber_mean", "negative subscriber_std", "infinite top_tier_range",
            "string free_user_fraction", "string tier_decay", "string density_margin", "string participation",
            "fractional population", "fractional tournament", "float elitism", "boolean generations",
            "string mutation_rate",
            "fractional tenants point", "boolean tenants point", "fractional resources point",
            "string tenants point", "list tenants point", "string demand_mean point", "scalar pay_level_range point",
            "huge top_tier_range", "scalar pay_level_range", "string pay_level_range",
        ],
    )
    def test_bad_spec_numbers_are_validation_failures(self, tmp_path, capsys, overrides, field):
        path = spec_file(tmp_path, **overrides)
        assert main(["run", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    def test_top_level_list_is_validation_failure(self, tmp_path, capsys):
        path = spec_file(tmp_path)
        path.write_text(f"[{path.read_text()}]")
        assert main(["run", "--spec", str(path)]) == 2
        assert "must be an object" in capsys.readouterr().err

    def test_non_utf8_spec_is_validation_failure(self, tmp_path, capsys):
        assert main(["run", "--spec", str(non_utf8_file(tmp_path))]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        path = spec_file(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--spec", str(path), "--algos", "posted_price", "--trials", "1", "--out", str(out)]) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + reference row + posted row

    def test_stdout_summary_without_out(self, tmp_path, capsys):
        path = spec_file(tmp_path)
        assert main(["run", "--spec", str(path)]) == 0
        captured = capsys.readouterr()
        assert "algo=posted_price" in captured.out


class TestSweep:
    def test_single_point(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--n", "6", "--c", "2", "--algos", "posted_price",
             "--trials", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert (out / "trials.csv").exists()

    def test_axis_from_multivalued_flag(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["sweep", "--n", "4,6", "--c", "2", "--algos", "posted_price",
             "--trials", "1", "--seed", "1", "--oracle", "lp", "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "plot_data.json").read_text())
        assert data["axis"] == "tenants"
        assert data["x"] == [4, 6]

    def test_two_multivalued_flags_rejected(self, tmp_path):
        code = main(["sweep", "--n", "4,6", "--c", "1,2", "--trials", "1"])
        assert code == 2

    def test_unwritable_out_is_io_failure(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        code = main(
            ["sweep", "--n", "4", "--algos", "posted_price", "--trials", "1",
             "--out", str(blocker / "nested")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], ExperimentSpec(algos=("posted_price", "myopic", "random"))),
            (
                ["--n", "10,50", "--trials", "5", "--transcripts", "on"],
                ExperimentSpec(
                    algos=("posted_price", "myopic", "random"),
                    base_config=GenConfig(tenant_count=10),
                    axis="tenants",
                    values=(10, 50),
                    trials=5,
                    transcripts=True,
                ),
            ),
        ],
    )
    def test_unset_flags_keep_the_spec_defaults(self, monkeypatch, flags, expected):
        captured = []
        monkeypatch.setattr(cli, "_execute", lambda spec, out: captured.append((spec, out)) or 0)
        assert main(["sweep", *flags]) == 0
        assert captured == [(expected, None)]

    def test_byte_identical_outputs(self, tmp_path):
        args = ["sweep", "--n", "5", "--c", "2", "--algos", "posted_price,random",
                "--trials", "2", "--seed", "9"]
        for name in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "trials.csv").read_bytes() == (tmp_path / "b" / "trials.csv").read_bytes()


class TestVerify:
    def test_small_pass(self, capsys):
        assert main(["verify", "--sessions", "30", "--setups", "30", "--instances", "10"]) == 0
        out, err = capsys.readouterr()
        assert out == "PASS sessions=30 setups=30 instances=10\n"
        assert err == ""

    def test_failure_prints_a_total_per_family_after_the_fail_lines(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "check_session", lambda instance, order: {"capacity": 2, "refund": 1})
        assert main(["verify", "--sessions", "30", "--setups", "3", "--instances", "3"]) == 2
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 50 and all(line.startswith("FAIL session ") for line in lines)
        assert err.splitlines() == [
            "total capacity: 60 violation(s)",
            "total refund: 30 violation(s)",
            "60 violation(s) found",
        ]

    @pytest.mark.parametrize("flag", ["--sessions", "--setups", "--instances", "--seed"])
    def test_negative_value_is_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--sessions", "2", "--setups", "2", "--instances", "2", flag, "-1"])
        assert exit_info.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_module_entry_point(self):
        # ``python -m slicemarket`` runs the same CLI as the console script
        src = str(Path(slicemarket.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "slicemarket", "verify", "--sessions", "2", "--setups", "2", "--instances", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("PASS sessions=2 setups=2 instances=2")


class TestOracle:
    def test_exact_solution(self, tmp_path, capsys):
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8))
        path = inst.save(tmp_path / "instance.json")
        assert main(["oracle", "--instance", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True
        assert payload["welfare"] >= 0.0
        assert payload["method"] == "branch-and-bound"

    @pytest.mark.parametrize("method", ["exhaustive", "branch-and-bound"])
    def test_zero_tenant_instance(self, tmp_path, capsys, method):
        # a market without tenants takes the no-viable-tenant path of every method
        path = Instance(np.zeros((0, 2)), [], np.ones(2), np.full(2, 2.0), np.full(2, 0.1)).save(tmp_path / "empty.json")
        assert main(["oracle", "--instance", str(path), "--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == method
        assert (payload["welfare"], payload["exact"], payload["accepted"]) == (0.0, True, [])

    def test_lp_method(self, tmp_path, capsys):
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8))
        path = inst.save(tmp_path / "instance.json")
        assert main(["oracle", "--instance", str(path), "--method", "lp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "lp-upper-bound"

    def test_missing_instance(self, tmp_path):
        assert main(["oracle", "--instance", str(tmp_path / "missing.json")]) == 3

    def test_directory_instance_is_io_failure(self, tmp_path, capsys):
        assert main(["oracle", "--instance", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["-5", "0", "2.5", "x"])
    def test_bad_node_budget_is_usage_error(self, tmp_path, capsys, budget):
        path = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8)).save(tmp_path / "instance.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "--instance", str(path), "--node-budget", budget])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--node-budget" in captured.err

    def test_node_budget_of_one(self, tmp_path, capsys):
        path = generate_instance(GenConfig(tenant_count=30, resource_count=2, seed=8)).save(tmp_path / "instance.json")
        assert main(["oracle", "--instance", str(path), "--method", "branch-and-bound", "--node-budget", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is False and payload["nodes_explored"] == 1

    def test_non_finite_valuation_is_validation_failure(self, tmp_path, capsys):
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8))
        data = inst.to_dict()
        data["valuations"][2] = float("nan")
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(data))
        assert main(["oracle", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize("name", MALFORMED_INSTANCES)
    def test_malformed_instance_is_validation_failure(self, tmp_path, capsys, name):
        document = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8)).to_dict()
        changes = MALFORMED_INSTANCES[name]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps([document] if changes is None else {**document, **changes}))
        assert main(["oracle", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid instance file" in captured.err

    def test_non_utf8_instance_is_validation_failure(self, tmp_path, capsys):
        assert main(["oracle", "--instance", str(non_utf8_file(tmp_path))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not UTF-8" in captured.err

    def test_corrupt_instance(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"demands\": []")
        assert main(["oracle", "--instance", str(path)]) == 2
