import csv
import json
from pathlib import Path

import pytest

from cloudsched import harness
from cloudsched.cli import main, parse_values


def write_config(tmp_path, **overrides):
    config = {"seed": 4, "users": 20, "hosts": 2, "arrival_window": [0, 10],
              "theta": 2}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def write_cut_config(tmp_path):
    """mct with 200 users on 3 hosts and a time_limit of 50: every run is cut."""
    return write_config(tmp_path, seed=1, users=200, hosts=3, theta=5,
                        arrival_window=[0, 100], scheduler="mct",
                        time_limit=50)


def warnings_in(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")]


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestParseValues:
    def test_comma_list(self):
        assert parse_values("1,5,10") == [1.0, 5.0, 10.0]

    def test_int_range(self):
        assert parse_values("1..4") == [1.0, 2.0, 3.0, 4.0]

    def test_float_range_with_step(self):
        assert parse_values("0.1..0.4:0.1") == \
            pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_default_step_for_probability(self):
        assert parse_values("0.1..1.0", step=0.1) == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])


class TestRunCommand:
    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(["run", "--config", write_config(tmp_path),
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["success_rate"]) == 1.0
        assert rows[0]["scheduler"] == "ara"

    def test_run_with_trace_and_seed(self, tmp_path):
        out = tmp_path / "results.csv"
        trace = tmp_path / "trace.jsonl"
        code = main(["run", "--config", write_config(tmp_path),
                     "--seed", "9", "--trace", str(trace), "--out", str(out)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert {"t", "agent", "kind", "detail"} <= set(record)
        assert read_rows(out)[0]["seed"] == "9"

    def test_run_cut_at_time_limit_warns(self, tmp_path, capsys):
        # 200 users on 3 hosts need far longer than 50 s: the cut row reads
        # makespan 0.0, so only the warning tells it from a finished run
        out = tmp_path / "results.csv"
        path = write_cut_config(tmp_path)
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == [
            "warning: run cut at time_limit 50 before quiescence; the row "
            "counts only work finished by then"]
        (row,) = read_rows(out)
        assert (row["makespan"], row["successful_tasks"]) == ("0.0", "0")
        assert main(["run", "--config", write_config(tmp_path),
                     "--out", str(out)]) == 0
        assert "warning:" not in capsys.readouterr().err

    def test_unknown_config_field_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"users": 5, "nope": 1}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_negative_arrival_window_is_config_error(self, tmp_path):
        path = write_config(tmp_path, arrival_window=[-10, 0])
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_hosts_without_vms_is_config_error(self, tmp_path):
        path = write_config(tmp_path, vms_per_host=[0, 0])
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_listener_shorter_than_round_trip_is_config_error(self, tmp_path):
        # every reply would arrive after its listener expired: the run used
        # to retry the unbounded-deadline batches forever
        path = write_config(tmp_path, users=40, hosts=2, collect_timeout=0.015,
                            latency=0.01, time_limit=5000)
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("workload", [[1e-7, 2e-7], [1e-300, 1e-299]],
                             ids=["1e-7", "1e-300"])
    @pytest.mark.parametrize("scheduler", ["ara", "mct", "min_min"])
    def test_tiny_task_workloads_run_to_quiescence(self, tmp_path, capsys,
                                                   scheduler, workload):
        # tasks far below any absolute work tolerance: each slot must finish
        # its task or pour into it, or the run goes on until time_limit
        out = tmp_path / "r.csv"
        path = write_config(tmp_path, seed=1, users=5, hosts=1,
                            task_workload=workload, scheduler=scheduler,
                            time_limit=5000)
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert warnings_in(capsys) == []
        (row,) = read_rows(out)
        assert row["successful_tasks"] == row["total_tasks"]
        assert float(row["makespan"]) < 5000

    @pytest.mark.parametrize("scheduler", ["ara", "mct"])
    def test_drawn_datacenter_without_vms_is_config_error(self, tmp_path,
                                                          scheduler):
        # vms_per_host [0, 1] passes validation; seed 2 draws no VM at all
        path = write_config(tmp_path, seed=2, hosts=1, vms_per_host=[0, 1],
                            scheduler=scheduler)
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_bad_range_is_config_error(self, tmp_path):
        path = write_config(tmp_path, vm_cpu=[2500, 500])
        assert main(["run", "--config", path,
                     "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("task_workload", "[NaN, 1.0]"), ("vm_cpu", "[500, Infinity]"),
        ("latency", "NaN"), ("deadline", "[850, NaN]"), ("hosts", "2.5"),
        ("seed", "1.0")])
    def test_non_finite_or_non_integer_is_one_error_line(self, tmp_path,
                                                          capsys, field,
                                                          value):
        # json.dumps writes no NaN or Infinity unasked; json.load reads them
        path = tmp_path / "bad.json"
        path.write_text('{"users": 20, "%s": %s}' % (field, value))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("field", ["deadline", "vm_cpu", "task_workload"])
    def test_int_too_large_for_a_float_is_one_error_line(self, tmp_path,
                                                         capsys, field):
        # float(10**400) raises OverflowError
        path = tmp_path / "bad.json"
        path.write_text('{"users": 20, "%s": [1, 1%s]}' % (field, "0" * 400))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("deadline", "5"), ("deadline", "true"), ("vm_cpu", "5"),
        ("users", "[10, 20]"), ("latency", "[0.1, 0.2]"),
        ("vms_per_host", "5"), ("events", "5"),
        ("realloc_cost_enabled", '"no"')])
    def test_wrong_shape_is_one_error_line(self, tmp_path, capsys, field,
                                           value):
        path = tmp_path / "bad.json"
        path.write_text('{"users": 20, "%s": %s}' % (field, value))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith(f"error: {field} must be")
        assert not (tmp_path / "r.csv").exists()


def degrade(**changes):
    """A pinned VM degrade of the first VM; `changes` replace its fields, and
    a `factors` change replaces the mutation's factors."""
    factors = changes.pop("factors", {"cpu": 0.5, "ram": 0.5, "storage": 0.5,
                                      "bandwidth": 0.5})
    event = {"event_id": 0, "fire_at": 1.0, "target_kind": "vm",
             "target_id": "h000v00",
             "mutation": {"kind": "vm_degrade", "factors": factors}}
    event.update(changes)
    return event


class TestPinnedEvents:
    def run(self, tmp_path, capsys, event, scheduler="mct"):
        path = write_config(tmp_path, users=5, hosts=1, scheduler=scheduler,
                            events=[event])
        code = main(["run", "--config", path, "--out", str(tmp_path / "r.csv")])
        return code, capsys.readouterr().err.splitlines()

    def test_well_formed_event_runs(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, degrade())[0] == 0

    @pytest.mark.parametrize("event, message", [
        (degrade(mutation={}), "unknown mutation kind None"),
        (degrade(fire_at=-1.0), "fire_at must be a finite number >= 0"),
        (degrade(factors={"cpu": 0.5, "storage": 0.5, "bandwidth": 0.5}),
         "vm_degrade factors must give"),
        (degrade(factors={"cpu": 0, "ram": 0.5, "storage": 0.5,
                          "bandwidth": 0.5}), "vm_degrade factors must give"),
        (dict(degrade(), target_kind="user", target_id="u00000",
              mutation={"kind": "task_inflate",
                        "factors": {"workload": 1e-12, "ram": 1.2,
                                    "storage": 1.2, "bandwidth": 1.2}}),
         "task_inflate workload factor must be at least 1"),
        (degrade(factors={"cpu": 3.0, "ram": 3.0, "storage": 3.0,
                          "bandwidth": 3.0}), "vm_degrade factors must be at most 1"),
        (degrade(factors={"cpu": 0.5, "ram": 0.5, "storage": 0.5,
                          "bandwidth": 1.01}), "vm_degrade factors must be at most 1"),
    ], ids=["empty-mutation", "negative-fire-at", "factor-missing",
            "zero-cpu-factor", "shrinking-workload-factor", "growing-factors",
            "growing-bandwidth-factor"])
    @pytest.mark.parametrize("scheduler", ["ara", "mct"])
    def test_malformed_event_is_one_error_line(self, tmp_path, capsys,
                                                scheduler, event, message):
        code, err = self.run(tmp_path, capsys, event, scheduler)
        assert code == 2 and len(err) == 1
        assert err[0].startswith(f"error: events[0]: {message}")

    def test_unknown_target_is_one_error_line(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, degrade(target_id="h000v99"))
        assert code == 2
        assert err == ["error: event 0 targets unknown vm 'h000v99'"]


class TestSweepCommand:
    @pytest.mark.parametrize("axis", ["theta", "hosts"])
    def test_non_integer_value_on_integer_axis_is_one_error_line(
            self, tmp_path, capsys, axis):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path),
                     "--axis", axis, "--values", "2,2.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == \
            [f"error: {axis}: 2.5 is not an integer"]
        assert not out.exists()

    def test_sweep_rows_sorted_and_seeded(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", write_config(tmp_path),
                     "--axis", "theta", "--values", "2,1", "--reps", "2",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert [(r["axis_value"], r["seed"]) for r in rows] == \
            [("1", "4"), ("1", "5"), ("2", "4"), ("2", "5")]
        # repetition seeds at one axis value share a config hash
        for value in ("1", "2"):
            hashes = {r["config_hash"] for r in rows if r["axis_value"] == value}
            assert len(hashes) == 1

    def test_sweep_warns_once_per_cut_run(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_cut_config(tmp_path),
                     "--axis", "theta", "--values", "2,5", "--reps", "2",
                     "--out", str(out)]) == 0
        assert warnings_in(capsys) == [
            f"warning: run (scheduler mct, seed {seed}, theta {theta}) cut at "
            f"time_limit 50 before quiescence; the row counts only work "
            f"finished by then" for theta in (2, 5) for seed in (1, 2)]
        assert len(read_rows(out)) == 4


class TestCompareCommand:
    def test_compare_grid(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--config",
                     write_config(tmp_path, deadline=[200, 500]),
                     "--schedulers", "ara,mct",
                     "--probability", "0.5", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert {r["scheduler"] for r in rows} == {"ara", "mct"}
        assert all(r["axis"] == "probability" for r in rows)
        assert "warning:" not in capsys.readouterr().err

    def test_compare_warns_once_per_cut_run(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--config", write_cut_config(tmp_path),
                     "--schedulers", "mct,round_robin", "--probability", "0",
                     "--out", str(out)]) == 0
        assert warnings_in(capsys) == [
            f"warning: run (scheduler {scheduler}, seed 1, probability 0.0) cut "
            f"at time_limit 50 before quiescence; the row counts only work "
            f"finished by then" for scheduler in ("mct", "round_robin")]
        assert len(read_rows(out)) == 2


class TestCores:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "theta", "--values", "2,5", "--reps", "2"],
        ["compare", "--schedulers", "mct,round_robin,met",
         "--probability", "0,0.5"],
    ], ids=["sweep", "compare"])
    def test_output_and_warnings_do_not_depend_on_cores(
            self, tmp_path, capsys, monkeypatch, argv):
        outputs = []
        for cores in (1, 2):
            monkeypatch.setattr(harness, "usable_cores", lambda: cores)
            out = tmp_path / f"cores{cores}.csv"
            assert main(argv + ["--config", write_cut_config(tmp_path),
                                "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), warnings_in(capsys)))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == len(read_rows(tmp_path / "cores1.csv"))


class TestOutputPaths:
    """Every output path is opened before the run: a path in a missing
    directory is one error line and exit 2, no run starts, and no other
    output file is left behind."""

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started before its outputs opened")
        for name in ("run_simulation", "sweep", "compare"):
            monkeypatch.setattr(harness, name, refuse)

    @pytest.mark.parametrize("flag", ["--out", "--trace", "--dump-events"])
    def test_run_path_in_missing_directory(self, tmp_path, capsys, flag):
        paths = {f: tmp_path / f"{f[2:]}.out"
                 for f in ("--out", "--trace", "--dump-events")}
        paths[flag] = tmp_path / "missing" / "file"
        argv = ["run", "--config", write_config(tmp_path)]
        for f, path in paths.items():
            argv += [f, str(path)]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "missing" in line
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "theta", "--values", "2"],
        ["compare", "--schedulers", "mct", "--probability", "0"],
    ], ids=["sweep", "compare"])
    def test_grid_out_in_missing_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "grid.csv"
        assert main(argv + ["--config", write_config(tmp_path),
                            "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "missing" in line


class TestExistingOutputs:
    """A command that exits 2 leaves an existing --out or --dump-events file
    as it was, and no output file that it made."""

    @pytest.mark.parametrize("argv, config", [
        (["sweep", "--axis", "theta", "--values", "1..x"], {}),
        (["sweep", "--axis", "theta", "--values", "2", "--reps", "0"], {}),
        (["compare", "--schedulers", ",", "--probability", "0"], {}),
        (["compare", "--schedulers", "mct,bogus", "--probability", "0"], {}),
        (["run", "--trace", "missing/t.jsonl"], {}),
        (["run", "--dump-events", "events.json", "--trace", "missing/t.jsonl"],
         {}),
        (["run", "--trace", "new.jsonl", "--dump-events", "events.json"],
         {"events": [degrade(target_id="h000v99")]}),
        (["run", "--trace", "results.csv", "--dump-events", "results.csv"], {}),
        (["run", "--trace", "new.jsonl", "--dump-events", "./results.csv"], {}),
        (["run", "--trace", "events.json", "--dump-events", "events.json"], {}),
    ], ids=["bad-values", "reps-0", "no-scheduler", "unknown-scheduler",
            "trace-in-missing-directory", "dump-then-missing-trace",
            "unknown-event-target", "one-path-for-all-three",
            "dump-events-is-out", "trace-is-dump-events"])
    def test_survive_an_exit_2(self, tmp_path, monkeypatch, capsys, argv,
                               config):
        monkeypatch.chdir(tmp_path)
        Path("results.csv").write_text("kept\n")
        Path("events.json").write_text("[]\n")
        assert main(argv + ["--config", write_config(tmp_path, **config),
                            "--out", "results.csv"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert Path("results.csv").read_text() == "kept\n"
        assert Path("events.json").read_text() == "[]\n"
        assert not Path("new.jsonl").exists()

    def test_are_replaced_on_success(self, tmp_path):
        out, trace = tmp_path / "results.csv", tmp_path / "trace.jsonl"
        out.write_text("x" * 10_000)
        trace.write_text("x" * 10_000)
        assert main(["run", "--config", write_config(tmp_path),
                     "--trace", str(trace), "--out", str(out)]) == 0
        assert len(read_rows(out)) == 1
        assert all(json.loads(line) for line in trace.open())


class TestEmptyGrid:
    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--axis", "theta", "--values", "2", "--reps", "0"],
         "reps must be at least 1, got 0"),
        (["sweep", "--axis", "theta", "--values", "2", "--reps", "-1"],
         "reps must be at least 1, got -1"),
        (["compare", "--schedulers", "mct", "--probability", "0",
          "--reps", "0"], "reps must be at least 1, got 0"),
        (["compare", "--schedulers", ",", "--probability", "0"],
         "compare requires a scheduler and a probability"),
    ], ids=["sweep-reps-0", "sweep-reps-negative", "compare-reps-0",
            "compare-no-scheduler"])
    def test_is_one_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "grid.csv"
        assert main(argv + ["--config", write_config(tmp_path),
                            "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()
