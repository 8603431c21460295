"""An isolated daemon keys its lookups on the code its attempts run.

The attempts of an isolated :class:`VerificationService` fork from a
forkserver that imported the package once.  After a source edit, the
first attempt reports ``stale_code`` and the forkserver is retired; the
daemon must then drop its own start-up scan, or it would look every
later request up under the old code's key while its attempts store
under the new one, and recompute identical work forever.
"""

from tests.runner.test_attempts import _package_copy, _run_script

#: Runs in a fresh interpreter over a copy of the package: one request
#: before an edit to a ``lint`` closure module, then three identical
#: requests for work first asked for after it.
_SERVE_SCRIPT = r"""
import json, os, sys, time
from repro.serve.app import ServeConfig, VerificationService

cache = os.environ["REPRO_CACHE_DIR"]
service = VerificationService(ServeConfig(
    workers=1,
    isolation=True,
    journal_path=cache + "-journal.jsonl",
    backend="dir:" + cache,
    timeout_s=60.0,
))
service.start()

def request(system):
    status, body = service.submit({"kind": "lint", "system": system})
    deadline = time.monotonic() + 60.0
    while body["state"] != "done":
        assert time.monotonic() < deadline, body
        time.sleep(0.01)
        body = service.get_job(body["job_id"])
    result = body["result"]
    return {"status": status, "stale": bool(result.get("stale_code")),
            "cached": bool(result.get("cached")), "error": result.get("error")}

runs = [request("rm")]
rules = os.path.join(sys.argv[1], "lint", "rules.py")
with open(rules, "a") as fh:
    fh.write("\n# edited\n")
runs += [request("relay") for _ in range(3)]
service.drain(grace_s=10.0)
service.journal.close()
print(json.dumps(runs))
"""


def test_identical_request_after_an_edit_is_a_warm_hit(tmp_path):
    root, env = _package_copy(tmp_path)
    before, stale, computed, warm = _run_script(_SERVE_SCRIPT, root, env)
    assert before["status"] == 202 and before["error"] is None
    # The forkserver still ran the code before the edit: its verdict is
    # answered but stored nowhere, and the forkserver is retired.
    assert stale["status"] == 202 and stale["stale"]
    # A fresh forkserver runs the edited code and stores its verdict
    # under the edited code's key ...
    assert computed["status"] == 202 and not computed["stale"]
    # ... which is the key the daemon now looks up.
    assert warm["status"] == 200 and warm["cached"]
