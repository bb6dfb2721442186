"""What each process imports: numpy and scipy load only when an LP is
about to be solved.

Every check runs in a fresh interpreter, so the modules this test
process has already imported cannot mask a load.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.config import AnalysisConfig
from repro.engine.cache import ResultCache
from repro.engine.jobs import JobResult
from repro.serve.server import job_from_payload

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules only an analysis needs.
ANALYSIS_ONLY = ("numpy", "scipy", "repro.lp.revised", "repro.lint.engine",
                 "repro.invariants")

#: What the loader must have imported before a worker forks or a
#: job's budget starts.
SOLVERS = ("repro.lp.scipy_backend", "repro.lp.certify")

OLD = """proc p(n) {
  assume(1 <= n && n <= 10);
  var i = 0;
  while (i < n) { tick(1); i = i + 1; }
}
"""


def new_source(cost: int) -> str:
    return OLD.replace("tick(1)", f"tick({cost})")


_PRELUDE = f"""\
import json, sys

OLD = {OLD!r}
NEW = {new_source(2)!r}


def loaded(modules):
    return [name for name in modules if name in sys.modules]
"""


def run_fresh(script: str, **env: str) -> dict:
    """Run ``script`` in a fresh interpreter, with ``env`` added to its
    environment; returns the JSON object it prints last."""
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("statements", [
    "import repro",
    "import repro.cli",
    "import repro.serve",
    "import repro.coord",
    "import repro.engine",
    """
    from repro.cli import build_parser
    build_parser()
    """,
    """
    from repro.config import AnalysisConfig
    AnalysisConfig(lp_backend="exact-warm")
    """,
    """
    from repro.engine.jobs import AnalysisJob
    AnalysisJob(kind="diff", old_source=OLD, new_source=NEW).key
    """,
    """
    import tempfile
    from repro.engine.cache import ResultCache
    from repro.engine.jobs import AnalysisJob, JobResult
    job = AnalysisJob(kind="diff", old_source=OLD, new_source=NEW)
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory, hot_capacity=0)
        cache.put(job, JobResult(job_key=job.key, name="p", kind="diff",
                                 status="ok", outcome="threshold",
                                 threshold=10.0, threshold_str="10"))
        assert cache.get(job.key).threshold_str == "10"
        cache.close()
    """,
], ids=["import-repro", "import-cli", "import-serve", "import-coord",
        "import-engine", "build-parser", "config", "job-key", "cache"])
def test_loads_no_analysis_module(statements):
    script = textwrap.dedent(statements) + (
        f"\nprint(json.dumps(loaded({ANALYSIS_ONLY!r})))\n")
    assert run_fresh(script) == []


def test_public_names_resolve_on_first_use():
    out = run_fresh("""
        import repro
        before = loaded(["repro.core"])
        from repro.core import analyze_diffcost
        print(json.dumps({
            "version": repro.__version__,
            "before": before,
            "same": repro.analyze_diffcost is analyze_diffcost,
            "unresolved": [name for name in repro.__all__
                           if not hasattr(repro, name)],
            "unknown": hasattr(repro, "no_such_name"),
        }))
    """)
    assert out == {"version": repro.__version__, "before": [], "same": True,
                   "unresolved": [], "unknown": False}


def test_all_hit_batch_replay_loads_no_solver(tmp_path, capsys):
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    for cost in (2, 3, 4):
        (pairs / f"p{cost}_old.imp").write_text(OLD)
        (pairs / f"p{cost}_new.imp").write_text(new_source(cost))
    argv = ["batch", str(pairs), "--jobs", "2", "--cache-dir",
            str(tmp_path / "cache"), "--format", "json"]
    assert cli_main(argv) == 0
    capsys.readouterr()
    out = run_fresh(f"""
        import contextlib, io
        from repro.cli import main
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main({argv!r})
        report = json.loads(stdout.getvalue())
        print(json.dumps({{
            "code": code,
            "cached": [result["cached"] for result in report["results"]],
            "loaded": loaded(["numpy", "scipy"]),
        }}))
    """)
    assert out == {"code": 0, "cached": [True] * 3, "loaded": []}


def test_pool_loads_the_solvers_before_its_first_fork():
    out = run_fresh(f"""
        from repro.engine import scheduler
        from repro.engine.jobs import AnalysisJob
        forks = []
        worker = scheduler._Worker

        def spy(*args):
            forks.append(loaded({SOLVERS!r}))
            return worker(*args)

        scheduler._Worker = spy
        pool = scheduler.WorkerPool(1)
        before = loaded({SOLVERS!r})
        task = pool.submit(AnalysisJob(kind="diff", old_source=OLD,
                                       new_source=NEW))
        while task.result is None:
            pool.wait()
        pool.shutdown()
        print(json.dumps({{"before": before, "forks": forks,
                          "outcome": task.result.outcome}}))
    """)
    assert out == {"before": [], "forks": [list(SOLVERS)],
                   "outcome": "threshold"}


def test_pool_fails_a_task_whose_analysis_will_not_import():
    out = run_fresh("""
        sys.modules["scipy.optimize._highspy"] = None  # certify won't load
        from repro.engine.jobs import AnalysisJob
        from repro.engine.scheduler import WorkerPool
        pool = WorkerPool(1)
        task = pool.submit(AnalysisJob(kind="diff", old_source=OLD,
                                       new_source=NEW))
        while task.result is None:
            pool.wait()
        pool.shutdown()
        print(json.dumps([task.result.status, task.result.error_type,
                          pool.spawned]))
    """)
    assert out == ["error", "ModuleNotFoundError", 0]


def test_execute_job_loads_the_solvers_before_the_budget_starts():
    out = run_fresh(f"""
        import repro.engine.executor as executor
        from repro.engine.jobs import AnalysisJob
        armed = []
        run_with_alarm = executor._run_with_alarm

        def spy(job, timeout):
            armed.append(loaded({SOLVERS!r}))
            return run_with_alarm(job, timeout)

        executor._run_with_alarm = spy
        before = loaded({SOLVERS!r})
        result = executor.execute_job(
            AnalysisJob(kind="diff", old_source=OLD, new_source=NEW),
            timeout=60)
        print(json.dumps({{"before": before, "armed": armed,
                          "status": result.status}}))
    """)
    assert out == {"before": [], "armed": [list(SOLVERS)], "status": "ok"}


@pytest.mark.parametrize("statements, status", [
    ("""
    from repro.core import refute_threshold
    from repro.lang import load_program
    status = refute_threshold(load_program(OLD), load_program(NEW), 9).status
    """, "refuted"),
    ("""
    from repro.config import AnalysisConfig
    from repro.core import analyze_diffcost
    from repro.lang import load_program
    status = analyze_diffcost(load_program(OLD), load_program(NEW),
                              AnalysisConfig(lp_backend="exact-warm")).status
    """, "threshold"),
], ids=["refute", "exact-warm-diff"])
def test_sanitized_exact_solve_in_a_fresh_interpreter(statements, status):
    """``REPRO_SANITIZE=1`` traps ``float`` inside exact regions, so
    numpy and scipy must be loaded before the first one is entered: their
    module code would read the trap."""
    out = run_fresh(textwrap.dedent(statements) + """
from repro.lint.sanitizer import sanitizer_enabled
print(json.dumps([sanitizer_enabled(), status.value]))
""", REPRO_SANITIZE="1")
    assert out == [True, status]


def _post(port: int, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/analyze", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def test_a_fresh_server_answers_hits_while_its_first_miss_imports(tmp_path):
    """A fresh ``serve`` imports the analysis at its first miss, which
    takes about a second; the cache hits that arrive meanwhile must not
    wait for it."""
    hit = {"kind": "diff", "old_source": OLD, "new_source": new_source(2)}
    miss = dict(hit, new_source=new_source(3))
    job = job_from_payload(hit, AnalysisConfig())
    cache = ResultCache(tmp_path / "cache")
    cache.put(job, JobResult(job_key=job.key, name="p", kind="diff",
                             status="ok", outcome="threshold",
                             threshold=10.0, threshold_str="10"))
    cache.close()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--cache-dir", str(tmp_path / "cache")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        # "serving on http://HOST:PORT (1 worker(s))"
        port = int(server.stdout.readline().rsplit(":", 1)[1].split()[0])
        assert _post(port, hit)["result"]["cached"]
        answered = threading.Event()
        outcome: dict = {}

        def run_miss():
            start = time.perf_counter()
            try:
                outcome["body"] = _post(port, miss)
            finally:
                outcome["seconds"] = time.perf_counter() - start
                answered.set()

        thread = threading.Thread(target=run_miss)
        thread.start()
        seconds = []
        while not answered.is_set():
            start = time.perf_counter()
            assert _post(port, hit)["result"]["cached"]
            seconds.append(time.perf_counter() - start)
        thread.join()
    finally:
        server.send_signal(signal.SIGINT)
        server.wait(timeout=30)
    result = outcome["body"]["result"]
    assert result["status"] == "ok" and not result["cached"]
    # Waiting for the import, a hit would take most of the miss's time.
    assert max(seconds) < outcome["seconds"] / 3, (max(seconds), outcome)
