"""The bench section registry (:mod:`repro.bench`): the one load/write
pair, the quick-record rules, the missing-section rule and every gate
clause, against the committed records.  Nothing here re-runs a drill."""

import copy
import dataclasses
import json
import os
import shutil

import pytest

from repro import bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = (bench.SERVING, bench.INFERENCE)

#: Where each section's run records that it was a quick one.
QUICK_FLAG = {
    "serving": ("config", "quick"),
    "fleet": ("config", "quick"),
    "observability": ("quick",),
    "monitoring": ("quick",),
    "gateway": ("config", "quick"),
    "overload": ("quick",),
    "inference": ("config", "quick"),
    "quantization": ("config", "smoke"),
}


def _committed(name: str) -> dict:
    section = bench.SECTIONS[name]
    return copy.deepcopy(section.take(
        bench.load(os.path.join(ROOT, section.file), section.schema)))


@pytest.fixture
def records(tmp_path, monkeypatch):
    """Copies of both committed records, with the cwd set to them."""
    for name in FILES:
        shutil.copy(os.path.join(ROOT, name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _all_sections(directory) -> dict:
    loaded = {name: bench.load(str(directory / name)) for name in FILES}
    return {name: section.take(loaded[section.file])
            for name, section in bench.SECTIONS.items()}


def test_registry_covers_both_records():
    assert set(bench.SECTIONS) == {
        "serving", "fleet", "observability", "monitoring", "gateway",
        "overload", "inference", "quantization"}
    assert {s.file for s in bench.SECTIONS.values()} == set(FILES)


def test_committed_records_pass_check(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert bench.main(["check"]) == 0


def test_load_refuses_an_old_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": "repro.serve.bench.v6"}))
    with pytest.raises(ValueError, match="v6"):
        bench.load(str(path))


class TestWrite:
    @pytest.mark.parametrize("name", list(bench.SECTIONS))
    def test_rewrite_keeps_every_other_section(self, records, name):
        before = _all_sections(records)
        value = copy.deepcopy(before[name])
        marker = value if not bench.SECTIONS[name].keys else value["config"]
        marker["note"] = "rewritten"
        bench.write(name, value)
        after = _all_sections(records)
        assert after[name] == value
        for other in bench.SECTIONS:
            if other != name:
                assert after[other] == before[other], other
        for file in FILES:
            assert bench.load(str(records / file))["schema"] \
                == bench.SCHEMAS[file]

    def test_unchanged_rewrite_is_byte_identical(self, records):
        for name in bench.SECTIONS:
            bench.write(name, _all_sections(records)[name])
        for file in FILES:
            assert (records / file).read_bytes() \
                == open(os.path.join(ROOT, file), "rb").read()

    def test_write_starts_a_missing_file(self, tmp_path):
        path = str(tmp_path / "fresh.json")
        bench.write("gateway", _committed("gateway"), path)
        record = bench.load(path, bench.SCHEMAS[bench.SERVING])
        assert set(record) == {"schema", "gateway"}

    def test_quick_never_replaces_full(self, records):
        quick = _committed("fleet")
        quick["config"]["quick"] = True
        with pytest.raises(ValueError, match="quick"):
            bench.write("fleet", quick)
        assert _all_sections(records)["fleet"] == _committed("fleet")
        # quick over quick, and full over quick, are fine
        path = str(records / "scratch.json")
        bench.write("fleet", quick, path)
        bench.write("fleet", quick, path)
        bench.write("fleet", _committed("fleet"), path)

    def test_quick_refusal_comes_before_the_run(self, records, monkeypatch,
                                                capsys):
        from repro import cli, infer

        def never(*_args, **_kwargs):
            raise AssertionError("the refused benchmark ran")

        monkeypatch.setitem(bench.SECTIONS, "fleet", dataclasses.replace(
            bench.SECTIONS["fleet"], run=never))
        assert bench.main(["run", "fleet", "--quick"]) == 2
        monkeypatch.setattr(infer, "run_inference_benchmark", never)
        assert cli.main(["infer-bench", "--quick"]) == 2
        assert capsys.readouterr().out.count("refusing to write a quick") == 1
        for file in FILES:
            assert (records / file).read_bytes() \
                == open(os.path.join(ROOT, file), "rb").read()

    @pytest.mark.parametrize("name", list(bench.SECTIONS))
    def test_every_section_knows_when_it_is_quick(self, name):
        value = _committed(name)
        assert not bench.is_quick(value)
        *parents, flag = QUICK_FLAG[name]
        target = value
        for key in parents:
            target = target[key]
        target[flag] = True
        assert bench.is_quick(value)


class TestCheck:
    def test_committed_check_fails_on_a_quick_section(self, records):
        quick = _committed("observability")
        quick["quick"] = True
        record = bench.load(str(records / bench.SERVING))
        record["observability"] = quick
        (records / bench.SERVING).write_text(json.dumps(record))
        problems = bench.check([])
        assert problems == ["observability: recorded by a quick run; the "
                            "committed record must be a full one"]
        # an explicit --out record may be quick (CI smoke records are)
        assert bench.check([], out=str(records / bench.SERVING)) == []

    @pytest.mark.parametrize("name", list(bench.SECTIONS))
    def test_missing_section_fails(self, records, name):
        section = bench.SECTIONS[name]
        record = bench.load(str(records / section.file))
        del record[(section.keys or (name,))[-1]]
        (records / section.file).write_text(json.dumps(record))
        assert bench.check([]) == [
            f"{name}: missing from {section.file}"]
        assert bench.check([], out=section.file) == [
            f"{name}: missing from {section.file}"]
        others = [other for other in bench.SECTIONS if other != name]
        assert bench.check(others) == []

    def test_malformed_section_is_a_problem_not_a_crash(self, records):
        record = bench.load(str(records / bench.SERVING))
        del record["fleet"]["hot_swap"]
        (records / bench.SERVING).write_text(json.dumps(record))
        [problem] = bench.check(["fleet"])
        assert problem.startswith("fleet: malformed record")

    def test_cli_exit_codes(self, records):
        assert bench.main(["check", "gateway", "inference"]) == 0
        record = bench.load(str(records / bench.SERVING))
        record["gateway"]["drain_drill"]["gate_drain_zero_lost"] = False
        (records / bench.SERVING).write_text(json.dumps(record))
        assert bench.main(["check", "gateway"]) == 1
        with pytest.raises(SystemExit):
            bench.main(["check", "nope"])
        with pytest.raises(SystemExit):
            bench.main(["run", "--out", "x.json"])  # spans both files


#: One failing variant per gate clause: (section, path, bad value).
CLAUSES = [
    ("serving", ("fault_tolerance", "lost"), 1),
    ("serving", ("fault_tolerance", "restarts"), 0),
    ("serving", ("fault_tolerance", "ring_leases_after"), 2),
    ("serving", ("fault_tolerance", "ok"), False),
    ("serving", ("transport", "dispatch_overhead_us", "reduction"), 0.1),
    ("serving", ("scaling", "hardware_limited"), False),
    ("fleet", ("hot_swap", "lost"), 1),
    ("fleet", ("hot_swap", "ok"), False),
    ("fleet", ("canary_rollback", "ok"), False),
    ("fleet", ("canary_promote", "ok"), False),
    ("observability", ("span_chain", "ok"), False),
    ("observability", ("overhead", "enabled_ok"), False),
    ("observability", ("overhead", "disabled_ok"), False),
    ("monitoring", ("overhead", "enabled_ok"), False),
    ("monitoring", ("overhead", "disabled_ok"), False),
    ("monitoring", ("drift_drill", "ok"), False),
    ("gateway", ("connection_scaling", 1, "lost"), 3),
    ("gateway", ("cache_effectiveness", "gate_cache_speedup"), False),
    ("gateway", ("drain_drill", "gate_drain_zero_lost"), False),
    ("overload", ("overload_drill", "gates", "gate_goodput"), False),
    ("overload", ("overload_drill", "ok"), False),
    ("overload", ("two_tenant_drill", "gates", "gate_share_returned"), False),
    ("overload", ("two_tenant_drill", "ok"), False),
    ("inference", ("equivalence", "argmax_match"), False),
    ("inference", ("equivalence", "max_abs_diff"), 1e-3),
    ("inference", ("single_sample", "speedup_fused_vs_tape"), 2.9),
    ("inference", ("kernels", "int8_resident", "speedup"), 1.2),
    ("quantization", ("engine", "snapshot_ratio_per_channel"), 0.36),
    ("quantization", ("engine", "fidelity", "per_channel",
                      "argmax_agreement"), 0.94),
    ("quantization", ("accuracy", "frameworks", "VITAL",
                      "per_channel_delta_m"), 0.51),
]


@pytest.mark.parametrize("name", list(bench.SECTIONS))
def test_gates_pass_the_committed_section(name):
    assert bench.SECTIONS[name].gates(_committed(name)) == []


@pytest.mark.parametrize("name,path,bad", CLAUSES,
                         ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}"
                              for c in CLAUSES])
def test_gate_clause_fails(name, path, bad):
    value = _committed(name)
    target = value
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    if path == ("scaling", "hardware_limited"):
        value["scaling"]["gate_2x_at_4_workers"] = False
    assert len(bench.SECTIONS[name].gates(value)) == 1


def test_every_section_has_a_clause():
    assert {clause[0] for clause in CLAUSES} == set(bench.SECTIONS)


def test_quantization_delta_limit_scales_with_float32_error():
    value = _committed("quantization")
    vital = value["accuracy"]["frameworks"]["VITAL"]
    vital["float32_mean_error_m"] = 10.0
    vital["per_channel_delta_m"] = 1.4  # within 0.15 x 10 m
    assert bench.SECTIONS["quantization"].gates(value) == []
    vital["per_channel_delta_m"] = 1.6
    assert len(bench.SECTIONS["quantization"].gates(value)) == 1


@pytest.mark.parametrize("float32_m,problems", [(3.11, 0), (21.08, 1)])
def test_quantization_smoke_fails_an_untrained_vital(monkeypatch, float32_m,
                                                     problems):
    """21.08 m is what two epochs give: worse than a random guess."""
    value = _committed("quantization")
    value["accuracy"]["chance_mean_error_m"] = 17.65
    value["accuracy"]["frameworks"]["VITAL"]["float32_mean_error_m"] = \
        float32_m
    monkeypatch.setitem(bench.SECTIONS, "quantization", dataclasses.replace(
        bench.SECTIONS["quantization"], run=lambda quick, seed: value))
    assert len(bench.SECTIONS["quantization"].smoke(0)) == problems
