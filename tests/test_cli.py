"""Command-line interface: verbs, flags, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import slicemarket
from slicemarket import cli, verify
from slicemarket.baselines import GaParams
from slicemarket.cli import main
from slicemarket.harness import AXES, ExperimentSpec, HarnessError
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
    "string seed": {"seed": "x"},
    "list config": {"config": [["tenant_count", 6], ["seed", 8]]},
}

#: Generator and GA settings that are module constants, not fields, and the
#: section of a spec they would sit in.
REMOVED_KEYS = {
    "subscriber_mean": "config",
    "subscriber_std": "config",
    "free_user_fraction": "config",
    "tier_decay": "config",
    "top_tier_range": "config",
    "mutation_rate": "ga_params",
    "tournament": "ga_params",
    "elitism": "ga_params",
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
        "document, message",
        [
            ({"config": "x"}, "malformed spec document"),
            ({"config": None}, "malformed spec document"),
            ({"algos": 5}, "malformed spec document"),
            ({"config": {"tenants": 5}}, "malformed spec document"),
            ({"config": [["tenant_count", 7], ["seed", 3]]}, "malformed spec document: 'list' object is not a mapping"),
            ({"timing": "false"}, "timing must be true or false"),
            ({"timing": 0}, "timing must be true or false"),
            ({"transcripts": "true"}, "transcripts must be true or false"),
            ({"transcripts": None}, "transcripts must be true or false"),
            ({"out": 5}, "out must be a path string or null"),
            ({"out": ["results"]}, "out must be a path string or null"),
            ({"ga_params": 0}, "invalid ga_params: .* must be a mapping, not int"),
            ({"ga_params": False}, "invalid ga_params: .* must be a mapping, not bool"),
            ({"ga_params": ""}, "invalid ga_params: .* must be a mapping, not str"),
            ({"ga_params": []}, "invalid ga_params: .* must be a mapping, not list"),
        ],
        ids=[
            "string config", "null config", "scalar algos", "unknown config key", "pair-list config",
            "string timing", "integer timing", "string transcripts", "null transcripts", "integer out", "list out",
            "zero ga_params", "false ga_params", "empty string ga_params", "empty list ga_params",
        ],
    )
    def test_misshapen_spec_is_validation_failure(self, tmp_path, capsys, document, message):
        with pytest.raises(HarnessError, match=message):
            ExperimentSpec.from_dict(document)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        assert main(["run", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid spec file {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides, key, kind",
        [
            ({"algos": "posted_price"}, "algos", "str"),
            ({"axis": "tenants", "values": "57"}, "values", "str"),
            ({"algos": {"posted_price": 1}}, "algos", "dict"),
        ],
        ids=["string algos", "string values", "object algos"],
    )
    def test_non_array_algos_or_values_is_validation_failure(self, tmp_path, capsys, overrides, key, kind):
        # a string or object would iterate as its characters or keys
        path = spec_file(tmp_path, **overrides)
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"malformed spec document: {key!r} must be a JSON array, got {kind}"
        assert captured.err == f"error: invalid spec file {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_spec_is_validation_failure(self, tmp_path):
        path = spec_file(tmp_path, algos=["cvx"])
        assert main(["run", "--spec", str(path)]) == 2

    def test_repeated_algorithm_is_validation_failure(self, tmp_path, capsys):
        path = spec_file(tmp_path, algos=["posted_price", "random", "posted_price"])
        assert main(["run", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "algorithm 'posted_price' is named more than once"
        assert captured.err == f"error: invalid spec file {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_misspelled_key_is_validation_failure(self, tmp_path, capsys):
        path = spec_file(tmp_path, algo=["cvx"])
        assert main(["run", "--spec", str(path)]) == 2
        assert "'algo'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_validation_failure(self, tmp_path, capsys, key):
        section = REMOVED_KEYS[key]
        spec = spec_file(tmp_path, **{section: {key: 1}})
        instance = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8)).to_dict()
        instance["config"][key] = 1
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        commands = [["run", "--spec", str(spec)]]
        if section == "config":
            commands.append(["oracle", "--instance", str(path)])
        for command in commands:
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert repr(key) in captured.err

    def test_null_ga_params_gives_the_defaults(self):
        assert ExperimentSpec.from_dict({"ga_params": None}).ga_params == GaParams()
        assert ExperimentSpec.from_dict({"ga_params": {}}).ga_params == GaParams()

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
            ({"config": {"tenant_count": 2.5}}, "tenant_count"),
            # the removed keys below are refused as unknown, and named
            ({"node_budget": "x"}, "node_budget"),
            ({"node_budget": 0}, "node_budget"),
            ({"node_budget": True}, "node_budget"),
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
            "fractional trials", "NaN trials", "negative seed", "fractional tenant_count",
            "string node_budget", "zero node_budget", "boolean node_budget",
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

    def test_repeated_algorithm_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["sweep", "--n", "5", "--trials", "1", "--algos", "posted_price,posted_price", "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: algorithm 'posted_price' is named more than once\n"
        assert not out.exists()

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
        monkeypatch.setattr(cli, "_execute", lambda spec: captured.append(spec) or 0)
        assert main(["sweep", *flags]) == 0
        assert captured == [expected]

    def test_byte_identical_outputs(self, tmp_path):
        args = ["sweep", "--n", "5", "--c", "2", "--algos", "posted_price,random",
                "--trials", "2", "--seed", "9"]
        for name in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "trials.csv").read_bytes() == (tmp_path / "b" / "trials.csv").read_bytes()


class TestFlagNames:
    """Each flag stores its value under the spec field or sweep axis it sets."""

    def test_override_flags_are_spec_fields(self):
        assert set(cli.SPEC_FLAGS) <= {f.name for f in fields(ExperimentSpec)}

    def test_every_flag_stores_under_a_spec_field_or_an_axis(self):
        sweep = vars(cli.build_parser().parse_args(["sweep"]))
        assert set(sweep) - {"command", "func"} == set(AXES) | set(cli.SPEC_FLAGS)
        run = vars(cli.build_parser().parse_args(["run", "--spec", "spec.json"]))
        assert set(run) - {"command", "func", "spec"} == set(cli.SPEC_FLAGS)

    def test_flags_parse_to_the_spec_types(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--algos", "posted_price,random", "--transcripts", "on", "--timing", "off"]
        )
        assert (args.algos, args.transcripts, args.timing) == (("posted_price", "random"), True, False)

    def test_sweep_help_keeps_the_flag_spellings(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for usage in ("--n N", "--c C", "--q-range Q_RANGE", "--pay-level PAY_LEVEL", "--transcripts {on,off}"):
            assert usage in text

    @pytest.mark.parametrize("verb", [["sweep"], ["run", "--spec", "spec.json"]], ids=["sweep", "run"])
    @pytest.mark.parametrize("flag", ["--transcripts", "--timing"])
    def test_bad_on_off_value_is_usage_error(self, verb, flag, capsys):
        # the on/off converter refuses the value with the message choices= gave
        with pytest.raises(SystemExit) as exit_info:
            main([*verb, flag, "yes"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: invalid choice: 'yes' (choose from 'on', 'off')" in capsys.readouterr().err


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

    def test_invalid_instance_lines_spell_plain_floats(self, tmp_path, capsys):
        # floor above cap, and a density above that cap: finite, so the file loads
        path = Instance([[0.5]], [1.0], [1.0], [0.9], [0.5]).save(tmp_path / "instance.json")
        assert main(["oracle", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid instance: resource 0: floor 1.0 above cap 0.9\n"
            "error: invalid instance: tenant 0 resource 0: density 2.0 above cap 0.9\n"
        )

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
