"""Tests for the command-line front end."""

import dataclasses
import re

import pytest

import repro.cli as cli
from repro.bench.registry import BY_NAME, EXPERIMENTS
from repro.cli import _PROGRAMS, build_parser, main


def test_parser_requires_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_experiment_quick_runs(capsys):
    assert main(["experiment", "table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "ext4" in out


def test_experiment_names_all_registered():
    # The parser offers every row of the table to every runner.
    parser = build_parser()
    for exp in EXPERIMENTS:
        for command in ("experiment", "metrics", "profile"):
            assert parser.parse_args([command, exp.name]).name == exp.name


def test_violated_check_exits_nonzero_naming_the_row(monkeypatch, capsys):
    def violated(rows):
        assert rows == [], "expected no rows"

    broken = dataclasses.replace(BY_NAME["table1"], check=violated)
    monkeypatch.setattr(cli, "EXPERIMENTS", (broken,))
    monkeypatch.setitem(cli.BY_NAME, "table1", broken)
    for argv in (["report", "--quick"], ["table1", "--quick"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert "table1: shape check failed" in str(excinfo.value.code)
        assert "expected no rows" in str(excinfo.value.code)
        assert "Table 1" in capsys.readouterr().out  # printed before it fails
    # A fault plan reshapes the rows on purpose: no check.
    assert main(["table1", "--quick", "--fault-plan", "seed=1"]) == 0


def test_experiment_shorthand_runs_pushdown(capsys):
    # ``python -m repro pushdown`` == ``python -m repro experiment
    # pushdown`` — the top-level name shorthand picks up experiments
    # registered through the shared subparser helper.
    assert main(["pushdown", "--quick", "--json"]) == 0
    out = capsys.readouterr().out
    assert '"speedup"' in out
    assert '"pushdown_rpcs_per_get": 1.0' in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_disasm_outputs_assembly(capsys):
    assert main(["disasm", "index"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "ldxdw" in out
    assert "exit" in out


@pytest.mark.parametrize("program", sorted(_PROGRAMS))
def test_disasm_all_programs(program, capsys):
    assert main(["disasm", program]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    # The annotated listing: every memory site of a library program is
    # proven, so none of its instructions is marked ``guarded``.
    header = re.search(r"^; (\d+) of (\d+) memory sites proven$", out, re.M)
    assert header and header.group(1) == header.group(2) != "0"
    assert "Ptr(ctx+[0,0])" in out and "guarded" not in out


def test_disasm_merge_annotates_facts_and_reassembles(capsys):
    from repro.core.hooks import storage_helpers
    from repro.ebpf import assemble

    assert "merge" in _PROGRAMS
    assert main(["disasm", "merge"]) == 0
    out = capsys.readouterr().out
    assert "; 19 of 19 memory sites proven" in out
    assert "; 4 of 5 pointer values never built" in out
    assert re.search(r"ldxdw r1, \[r2\] +; r2=Ptr\(data\+\[16,4080\]\)", out)
    # The loop's ``data + i`` keeps only its offset; the data pointer
    # itself is live into the loop's blocks, so it is built.
    assert re.search(r"add r2, r7 +; .* unboxed$", out, re.M)
    assert re.search(r"ldxdw r7, \[r6\] +; r6=Ptr\(ctx\+\[0,0\]\)$", out,
                     re.M)
    assert re.search(r"mov r8, 254 +; unreached", out)
    # Comments and all, the listing is still the program.
    assert assemble(out, storage_helpers().names()) == \
        _PROGRAMS["merge"]().instructions


def test_verify_demo_shows_both_outcomes(capsys):
    assert main(["verify-demo"]) == 0
    out = capsys.readouterr().out
    assert out.count("ACCEPT") == 1
    assert out.count("REJECT") == 3
    assert "out of bounds" in out
    assert "uninitialised" in out


def test_quick_experiments_all_run(capsys):
    # The heavier ones are covered by the benchmarks; spot-check a light
    # subset through the CLI plumbing.
    for name in ("fig1", "fig3c", "bound", "vmmode", "appcache"):
        assert main(["experiment", name, "--quick"]) == 0
        assert capsys.readouterr().out


def test_experiment_with_fault_plan(capsys):
    from repro.faults import get_default_fault_spec

    assert main(["experiment", "fig3c", "--quick", "--fault-plan",
                 "seed=7,read_error_rate=0.02,error_burst=2"]) == 0
    assert capsys.readouterr().out
    # The plan is scoped to the run, not left installed process-wide.
    assert get_default_fault_spec() is None


def test_experiment_rejects_bad_fault_plan():
    from repro.errors import InvalidArgument

    with pytest.raises(InvalidArgument, match="unknown fault-plan key"):
        main(["experiment", "fig3c", "--quick", "--fault-plan",
              "bogus=1"])


def test_metrics_with_fault_plan_reports_fault_counters(capsys):
    assert main(["metrics", "fig3c", "--quick", "--fault-plan",
                 "seed=7,read_error_rate=0.05,error_burst=2"]) == 0
    out = capsys.readouterr().out
    assert "faults_injected_total" in out
    assert "nvme_retries_total" in out


def test_metrics_prints_the_ledger(capsys):
    assert main(["metrics", "table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Layer ledger" in out
    ledger = dict(re.findall(r"^(\w[\w ]*?) +(\d+)$", out, re.M))
    assert ledger["storage device"] == "3224"
    assert ledger["unattributed"] == "0"
    assert ledger["total"] == "6272"


def test_metrics_fails_naming_an_operation_with_unattributed_time(
        monkeypatch, capsys):
    from repro.obs import ATTRIBUTION, events

    # Unclaimed device time ends every polled read: the ledger cannot
    # name it, so it is left over at close.
    monkeypatch.delitem(ATTRIBUTION, (events.NVME_COMPLETE, "service_ns"))
    with pytest.raises(SystemExit) as excinfo:
        main(["metrics", "table1", "--quick"])
    assert "table1: 50 operations leave time unattributed" in \
        str(excinfo.value)
    assert "sys_pread" in str(excinfo.value)


def test_profile_quick_prints_hotspot_table(capsys):
    assert main(["profile", "fig3c", "--quick", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "self-profile" in out
    assert "sim" in out
    assert "ebpf" in out
    assert "events dispatched" in out
    assert "Hottest functions (top 5 of" in out


def test_profile_dump_loads_in_pstats(tmp_path, capsys):
    import pstats

    target = tmp_path / "prof.pstats"
    assert main(["profile", "table1", "--quick", "--dump", str(target)]) == 0
    assert f"pstats dump -> {target}" in capsys.readouterr().out
    assert pstats.Stats(str(target)).total_calls > 0


def test_profile_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["profile", "fig99", "--quick"])
