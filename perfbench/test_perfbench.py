"""Tests of the benchmark's output gate and trace arithmetic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

JOB = workloads.Job(("constants", "--q", "3", "--p", "3"))


def _digests():
    return json.loads(run.REFERENCE.read_text())["digests"]


def test_every_default_seed_job_has_a_reference_digest():
    digests = _digests()
    for name in workloads.WORKLOADS:
        for job in workloads.jobs(name, workloads.DEFAULT_SEED):
            assert job.key() in digests, job.key()


def test_reference_digest_passes(tmp_path):
    runner = run.Runner(tmp_path, _digests())
    runner.run_job(JOB)
    assert (runner.attempted, runner.failed) == (1, 0)


def test_corrupted_reference_is_a_failure(tmp_path):
    digests = _digests()
    digests[JOB.key()] = "0" * 64
    runner = run.Runner(tmp_path, digests)
    runner.run_job(JOB)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "differs from the reference" in runner.failures[0]


def test_oracle_disagreement_is_a_failure(tmp_path):
    runner = run.Runner(tmp_path, {})
    job = workloads.Job(("oracle", "--cover", "c.json"), {"c.json": "{}"})
    assert runner.check(job, 0, b'{"agree": true}') is None
    assert runner.check(job, 0, b'{"agree": false}') == "oracle disagreement"
    assert runner.check(job, 4, b"") == "exit 4"


def test_trace_wraps_names_bound_in_other_modules(tmp_path):
    # serialize binds polys.ext_field_for by name; its calls must be spans
    # whose parent is the serialize span.
    cover = tmp_path / "c.json"
    cover.write_text('{"q": 2, "p": 2, "branch": [{"place": "0,1", "local": [1]}], '
                     '"infinity": [1]}')
    runner = run.Runner(tmp_path, {})
    out = tmp_path / "t.json"
    *_, code, stdout = runner.cli(["--trace", str(out), "--job", "0"],
                                  ["classify", "--cover", str(cover)], tmp_path / "o")
    assert code == 0 and json.loads(stdout)["kind"] == "artin-schreier"
    trace = json.loads(out.read_text())
    names = [trace["names"][i] for i in trace["name"]]
    sid = names.index("polys.ext_field_for")
    assert names[trace["parent"][sid]] == "serialize.cover_from_dict"
    assert trace["counters"]["ext_fields_built"] == 1


def test_span_self_and_stage_times():
    # a(0..10) calls b(1..4) and c(5..9); c calls b(6..7)
    trace = {"names": ["a", "b", "c"], "name": [0, 1, 2, 1],
             "parent": [-1, 0, 0, 2], "start": [0.0, 1.0, 5.0, 6.0],
             "end": [10.0, 4.0, 9.0, 7.0]}
    assert run.span_self_times(trace) == {"a": [1, 3.0], "b": [2, 4.0], "c": [1, 3.0]}
    assert run._outermost_time(trace, {"b"}) == 4.0
    assert run._outermost_time(trace, {"b", "c"}) == 7.0


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.jobs(name, 5), workloads.jobs(name, 5)
        assert [j.key() for j in a] == [j.key() for j in b]
    assert ([j.key() for j in workloads.jobs("oracle", 5)]
            != [j.key() for j in workloads.jobs("oracle", 6)])
