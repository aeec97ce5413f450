"""Checkpoint/resume acceptance: interrupted campaigns resume to
byte-identical output, and SIGINT tears the pool down cleanly.

The interruption is simulated by truncating a completed store file to
its first K lines — exactly the on-disk state a campaign killed after K
checkpointed results leaves behind (each ``put`` is one flushed+fsynced
line).  The resumed run must then (a) serve those K runs from the store,
counted as cache hits, and (b) print stdout byte-identical to an
uninterrupted reference.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main


def _truncate_store(path, keep: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > keep, "need more results than we keep"
    path.write_text("".join(lines[:keep]))


def _resume_over_a_damaged_body(argv, tmp_path, capsys) -> None:
    """Damage inside a well-framed line passes the open and is refused at
    that key's first get: ``--resume`` must say so in one line and exit 2,
    as ``repro store ls`` does, not die in a traceback."""
    store = tmp_path / "s.jsonl"
    assert main(argv + ["--store", str(store)]) == 0
    lines = store.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"summary":{', b'"summary":{{', 1)
    store.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv + ["--store", str(store), "--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"repro {argv[0]}: error: {store}:2: corrupt store line (not a "
        "repro.store.v1 record); move the file aside or restart without "
        "--store\n")


CHAOS = ["chaos", "--campaigns", "4", "--seed", "11",
         "--max-time", "400.0", "--json"]

#: Three chaos runs (seed 11, max-time 400) stored by the commit before
#: the one-shape store: salt repro.spec.v5, {run_seed, verdict, record}.
FIXTURE = pathlib.Path(__file__).parent / "data" / "store_pr15.jsonl"


class TestChaosResume:
    def test_resume_after_interruption_is_byte_identical(self, tmp_path,
                                                         capsys):
        store = tmp_path / "s.jsonl"
        assert main(CHAOS) == 0
        reference = capsys.readouterr().out

        assert main(CHAOS + ["--store", str(store)]) == 0
        fresh = capsys.readouterr()
        assert fresh.out == reference
        assert "4 new result(s)" in fresh.err

        _truncate_store(store, keep=2)  # the simulated mid-flight kill
        assert main(CHAOS + ["--store", str(store), "--resume"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == reference
        assert "2 cache hit(s)" in resumed.err
        assert "2 new result(s)" in resumed.err

    def test_full_store_resume_runs_nothing(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(CHAOS + ["--store", str(store)]) == 0
        reference = capsys.readouterr().out
        assert main(CHAOS + ["--store", str(store), "--resume"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == reference
        assert "4 cache hit(s), 0 new result(s)" in resumed.err

    def test_growing_a_campaign_reuses_the_prefix(self, tmp_path, capsys):
        # fanout_seeds(seed, 4) is a prefix of fanout_seeds(seed, 6), so
        # raising --campaigns on an existing store only runs the new tail.
        store = tmp_path / "s.jsonl"
        assert main(CHAOS + ["--store", str(store)]) == 0
        capsys.readouterr()
        bigger = [a if a != "4" else "6" for a in CHAOS]
        assert main(bigger + ["--store", str(store), "--resume"]) == 0
        grown = capsys.readouterr()
        assert "4 cache hit(s)" in grown.err
        assert "2 new result(s)" in grown.err

    def test_resume_without_store_is_a_usage_error(self, capsys):
        assert main(CHAOS + ["--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_metrics_out_identical_across_resume(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        ref = tmp_path / "ref.jsonl"
        out = tmp_path / "resumed.jsonl"
        assert main(CHAOS + ["--metrics-out", str(ref)]) == 0
        assert main(CHAOS + ["--store", str(store)]) == 0
        _truncate_store(store, keep=1)
        assert main(CHAOS + ["--store", str(store), "--resume",
                             "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == ref.read_text()

    def test_resume_builds_each_scenario_once(self, tmp_path, monkeypatch):
        # The key, the run and the StoredVerdict's scenario come from one
        # RunSpec: a cold store-backed campaign and a full-store resume
        # each expand every run seed exactly once.
        from repro import chaos
        from repro.runtime.store import ResultStore

        built = []
        real_build_run = chaos.build_run

        def counting_build_run(run_seed, run_cfg):
            built.append(run_seed)
            return real_build_run(run_seed, run_cfg)

        monkeypatch.setattr(chaos, "build_run", counting_build_run)
        cfg = chaos.ChaosConfig(campaigns=3, seed=11, max_time=400.0)
        path = tmp_path / "s.jsonl"
        fresh = chaos.run_campaign(cfg, store=ResultStore(path))
        assert sorted(built) == sorted(chaos.fanout_seeds(11, 3))

        built.clear()
        store = ResultStore(path)
        resumed = chaos.run_campaign(cfg, store=store, resume=True)
        assert len(built) == cfg.campaigns
        assert store.stats()["store.hits"] == cfg.campaigns
        assert resumed.to_json() == fresh.to_json()
        assert ([v.scenario for v in resumed.verdicts]
                == [v.scenario for v in fresh.verdicts])

    def test_a_pre_v6_store_reruns_and_pins_the_derived_verdict(
            self, tmp_path, capsys):
        # data/store_pr15.jsonl was written under salt repro.spec.v5 in
        # the old chaos shape {run_seed, verdict, record}.  The line
        # format is unchanged, so the file still opens; its keys are never
        # looked up again, so every run re-executes and is appended after
        # the old lines.  Its three stored verdict blocks were computed by
        # the old RunVerdict.summary() from live reports: the view now
        # derived from the run summary must equal them exactly.
        argv = ["chaos", "--campaigns", "3", "--seed", "11",
                "--max-time", "400.0", "--json"]
        store = tmp_path / "old.jsonl"
        shutil.copy(FIXTURE, store)
        before = store.read_bytes()
        assert main(argv) == 0
        reference = capsys.readouterr().out
        assert main(argv + ["--store", str(store), "--resume"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == reference
        assert "0 cache hit(s), 3 new result(s), 6 total" in resumed.err
        after = store.read_bytes()
        assert after[:len(before)] == before
        old_lines = before.splitlines()
        new_lines = after[len(before):].splitlines()
        assert len(new_lines) == 3
        # The verdict no longer names the trace sink; every other field
        # must match.
        old = [{k: v for k, v in json.loads(line)["payload"]["verdict"].items()
                if k != "trace_mode"} for line in old_lines]
        # dumps, not ==: key order and float repr are part of "exactly"
        assert (json.dumps(json.loads(resumed.out)["runs"])
                == json.dumps(old))
        # One envelope per key, the verdict stored nowhere: each line sheds
        # two verdict blocks (-21..-24 % by the fixture's byte counts).
        for old_line, new_line in zip(old_lines, new_lines):
            payload = json.loads(new_line)["payload"]
            assert sorted(payload) == ["record", "schema", "spec_key"]
            assert "verdict" not in payload["record"]
            assert (payload["record"]["summary"]["seed"]
                    == json.loads(old_line)["payload"]["run_seed"])
            assert len(new_line) <= 0.85 * len(old_line)

    def test_resume_reports_a_damaged_body_as_one_line(self, tmp_path,
                                                       capsys):
        _resume_over_a_damaged_body(CHAOS, tmp_path, capsys)

    def test_resume_over_a_torn_tail_then_resume_again(self, tmp_path,
                                                       capsys):
        # kill -9 mid-append: the tail is a fragment.  The first resume
        # recomputes that run and appends it — on a line of its own — so
        # the second resume opens the file and finds everything cached.
        store = tmp_path / "s.jsonl"
        assert main(CHAOS + ["--store", str(store)]) == 0
        reference = capsys.readouterr().out
        store.write_bytes(store.read_bytes()[:-20])
        assert main(CHAOS + ["--store", str(store), "--resume"]) == 0
        first = capsys.readouterr()
        assert first.out == reference
        assert "3 cache hit(s), 1 new result(s)" in first.err
        assert main(CHAOS + ["--store", str(store), "--resume"]) == 0
        second = capsys.readouterr()
        assert second.out == reference
        assert "4 cache hit(s), 0 new result(s)" in second.err


class TestSweepResume:
    def _scenario(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "rs", "graph": "ring:3",
                                    "max_time": 400.0, "grace": 150.0}))
        return str(path)

    def test_sweep_resume_is_byte_identical(self, tmp_path, capsys):
        scenario = self._scenario(tmp_path)
        store = tmp_path / "s.jsonl"
        argv = ["sweep", scenario, "--seeds", "4", "--seed", "5"]
        assert main(argv) == 0
        reference = capsys.readouterr().out

        assert main(argv + ["--store", str(store)]) == 0
        assert capsys.readouterr().out == reference
        _truncate_store(store, keep=2)
        assert main(argv + ["--store", str(store), "--resume"]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == reference
        assert "2 cache hit(s)" in resumed.err

    def test_resume_reports_a_damaged_body_as_one_line(self, tmp_path,
                                                       capsys):
        _resume_over_a_damaged_body(
            ["sweep", self._scenario(tmp_path), "--seeds", "4"],
            tmp_path, capsys)


@pytest.mark.slow
class TestSigintShutdown:
    def test_sigint_flushes_store_and_leaves_no_orphans(self, tmp_path):
        """SIGINT mid-campaign: exit 130, a resume hint, a parseable
        store holding whatever completed, and zero orphaned workers."""
        store = tmp_path / "sig.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "chaos",
             "--campaigns", "500", "--seed", "2", "--workers", "2",
             "--store", str(store)],
            env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        time.sleep(3.0)  # let workers spin up and some runs land
        os.killpg(proc.pid, signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("repro chaos did not exit after SIGINT")
        assert proc.returncode == 130, err
        assert "rerun with --store" in err

        # Every store line must be a complete, valid checkpoint record.
        if store.exists():
            for line in store.read_text().splitlines():
                rec = json.loads(line)
                assert rec["schema"] == "repro.store.v1"

        # No orphaned worker may survive the CLI process (forked workers
        # inherit its cmdline, so the store path identifies them).
        time.sleep(1.0)
        orphans = []
        for pid in os.listdir("/proc"):
            if not pid.isdigit() or int(pid) == os.getpid():
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read().decode(errors="replace")
            except OSError:
                continue
            if str(store) in cmdline:
                orphans.append((pid, cmdline))
        assert not orphans, f"orphaned workers: {orphans}"
