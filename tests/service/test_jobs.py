"""Job lifecycle and journal recovery (repro.service.jobs / .journal)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.service.jobs import (
    DONE,
    FAILED,
    JOB_SCHEMA,
    QUEUED,
    RUNNING,
    TERMINAL,
    Job,
    next_job_id,
)
from repro.service.journal import JobJournal


def sample(ok=True, events=10):
    return {"record": {"summary": {"ok": ok, "events_processed": events,
                                   "convergence_time": 1.0,
                                   "wrongful_suspicions": 0}}}


def make_job(n=2, job_id="j1", kind="campaign"):
    specs = [{"graph": "ring:3", "seed": s} for s in range(n)]
    keys = [f"k{s}" for s in range(n)]
    return Job(job_id, kind, specs, keys, wall_clock=lambda: 1000.0)


# -- lifecycle ----------------------------------------------------------------


def test_job_walks_queued_running_done():
    job = make_job()
    assert job.state == QUEUED and not job.terminal
    job.mark_running()
    assert job.state == RUNNING and job.started_wall == 1000.0
    job.mark_done()
    assert job.state == DONE and job.terminal
    assert job.finished_wall == 1000.0


def test_job_failure_keeps_the_error():
    job = make_job()
    job.mark_running()
    job.mark_failed("ExecutionError: boom")
    assert job.state == FAILED and job.terminal
    assert job.snapshot()["error"] == "ExecutionError: boom"
    assert set(TERMINAL) == {DONE, FAILED}


def test_record_result_appends_progress_heartbeats():
    job = make_job(n=3)
    job.record_result(0, sample(events=10), cached=False)
    job.record_result(1, sample(ok=False, events=5), cached=True)
    assert len(job.heartbeats) == 2
    last = job.heartbeats[-1]
    assert last["schema"] == "repro.progress.v1"
    assert last["done"] == 2 and last["total"] == 3
    assert last["cached"] == 1 and last["failed"] == 1
    assert last["events"] == 15
    assert json.dumps(last)  # heartbeats must be JSON-serializable


def test_snapshot_is_a_json_document():
    job = make_job(n=2, kind="run")
    job.record_result(0, sample(), cached=True)
    snap = job.snapshot()
    assert snap["schema"] == JOB_SCHEMA
    assert snap["id"] == "j1" and snap["kind"] == "run"
    assert snap["total"] == 2 and snap["done"] == 1 and snap["cached"] == 1
    assert snap["spec_keys"] == ["k0", "k1"]
    assert snap["progress"]["done"] == 1
    json.dumps(snap)


def test_change_notification_replaces_the_event():
    job = make_job()
    first = job.changed()
    job.record_result(0, sample(), cached=False)
    assert first.is_set()
    assert job.changed() is not first and not job.changed().is_set()


def test_spec_key_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Job("j1", "run", [{"seed": 1}], ["k1", "k2"])


def test_next_job_id_skips_past_existing():
    assert next_job_id([]) == "j1"
    assert next_job_id(["j1", "j2"]) == "j3"
    assert next_job_id(["j9", "j10", "weird", "jx"]) == "j11"


# -- journal ------------------------------------------------------------------


def journal_with(tmp_path, *jobs_and_states):
    journal = JobJournal(tmp_path / "jobs.jsonl")
    for job, states in jobs_and_states:
        journal.record_submit(job)
        for state in states:
            job.state = state
            journal.record_state(job)
    return journal


def test_replay_empty_when_no_file(tmp_path):
    assert JobJournal(tmp_path / "missing.jsonl").replay() == []


def test_replay_reconstructs_submission_and_final_state(tmp_path):
    done = make_job(job_id="j1")
    stuck = make_job(job_id="j2")
    journal = journal_with(tmp_path,
                           (done, [RUNNING, DONE]),
                           (stuck, [RUNNING]))
    recovered = journal.replay()
    assert [r.job_id for r in recovered] == ["j1", "j2"]
    by_id = {r.job_id: r for r in recovered}
    assert by_id["j1"].state == DONE and not by_id["j1"].incomplete
    assert by_id["j2"].state == RUNNING and by_id["j2"].incomplete
    assert by_id["j2"].specs == stuck.specs
    assert by_id["j2"].spec_keys == stuck.spec_keys


def test_replay_tolerates_torn_final_line(tmp_path):
    journal = journal_with(tmp_path, (make_job(job_id="j1"), [DONE]))
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": "repro.job.v1", "event": "sub')  # torn append
    recovered = journal.replay()
    assert len(recovered) == 1 and recovered[0].state == DONE


def test_record_after_a_torn_tail_does_not_weld(tmp_path):
    # The daemon died mid-append; the restarted one journals on.  The new
    # record must not be welded onto the fragment, and the fragment — now
    # an interior line — must not make the next replay refuse the file.
    job = make_job(job_id="j1")
    journal = journal_with(tmp_path, (job, [RUNNING]))
    whole = journal.path.read_bytes()
    for cut in (4, 30, len(whole.splitlines()[-1]) - 1):
        journal.path.write_bytes(whole + whole.splitlines()[-1][:cut])
        job.state = DONE
        journal.record_state(job)
        recovered = journal.replay()
        assert len(recovered) == 1 and recovered[0].state == DONE


def test_replay_rejects_corrupt_interior_line(tmp_path):
    journal = journal_with(tmp_path, (make_job(job_id="j1"), [DONE]))
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
        fh.write(json.dumps({"schema": JOB_SCHEMA, "event": "state",
                             "id": "j1", "state": DONE}) + "\n")
    with pytest.raises(ConfigurationError, match="corrupt journal line"):
        journal.replay()


def test_journal_rejects_directory_path(tmp_path):
    with pytest.raises(ConfigurationError):
        JobJournal(tmp_path)
