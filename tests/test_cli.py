"""Command-line interface: verbs, flags, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicemarket
from slicemarket import cli
from slicemarket.cli import main
from slicemarket.harness import ExperimentSpec
from slicemarket.workload import GenConfig, generate_instance


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

    def test_missing_spec_is_io_failure(self, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 3

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
            ({"config": {"tenant_count": 2.5}}, "tenant_count"),
            ({"config": {"subscriber_mean": float("nan")}}, "subscriber_mean"),
            ({"config": {"subscriber_std": -1.0}}, "subscriber_std"),
            ({"config": {"top_tier_range": [2.0, float("inf")]}}, "top_tier_range"),
        ],
        ids=[
            "fractional trials", "NaN trials", "negative seed", "string node_budget", "fractional tenant_count",
            "NaN subscriber_mean", "negative subscriber_std", "infinite top_tier_range",
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
        assert "PASS" in capsys.readouterr().out

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
        assert payload["method"] in ("exhaustive", "branch-and-bound")

    def test_lp_method(self, tmp_path, capsys):
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8))
        path = inst.save(tmp_path / "instance.json")
        assert main(["oracle", "--instance", str(path), "--method", "lp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "lp-upper-bound"

    def test_missing_instance(self, tmp_path):
        assert main(["oracle", "--instance", str(tmp_path / "missing.json")]) == 3

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
