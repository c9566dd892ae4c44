"""Generated framing test: whatever arrives on the socket, the reply is ours.

The job server reads HTTP/1.1 itself, so its reader is tested the way a
parser is: random bytes, and well-formed requests mutated where framing
lives — the request line, header names / values / counts, ``Content-Length``
against the body actually sent, line endings.  Each example goes over a raw
socket followed by a well-formed ``GET /healthz`` and a half-close, and the
whole reply stream is read back under a 2 s socket timeout.  Required:

- every reply is ``HTTP/1.1 <status> <reason>`` + headers + a
  ``Content-Length``-framed JSON body (``tests.conftest.parse_replies``);
- its status is 2xx, 4xx or 501 — never 500 — and an error body is
  ``{"error": ...}``;
- a reply that says ``Connection: close`` is the last one, and a connection
  that was never closed answered the trailing ``/healthz``;
- a body the client framed is never answered as a request: however the
  framing is spelled, a request and the ``/healthz`` behind it get at most
  two replies;
- nothing hangs (a timeout fails the example) and, afterwards, no handler
  thread is left behind and the server still answers.

The documents inside the requests are generated too: valid job and campaign
documents mutated field by field (a value of the wrong JSON type, nested lists
and objects, huge integers, NaN and infinities, booleans where numbers go),
down to the fields of their fault plans' rule, degradation and crash entries.
``JobSpec.from_dict`` / ``CampaignSpec.from_dict`` / ``FaultPlan.from_dict``
either raise ``ValidationError`` — naming the field whose shape is wrong, when
one is — or return a spec whose ``to_dict()`` survives a JSON round trip; a
document whose fault plan is ill-shaped is refused; over a raw socket,
``POST /jobs`` answers 2xx or 400 and ``POST /jobs/batch`` rejects that entry
alone.
"""

import copy
import json
import re
import socket
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.campaign import CampaignSpec
from repro.faults import FaultPlan
from repro.serve import JobServer, JobSpec, ServeClient
from repro.serve.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES
from repro.util.errors import ValidationError
from tests.conftest import parse_replies, wait_until

HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
SPEC = json.dumps({"app": "heat3d", "nodes": 2, "preset": "laptop", "mix": "cpu"}).encode()


@pytest.fixture(scope="module")
def served():
    """One server for every example, and the id of a finished job on it."""
    threads = threading.active_count()
    with JobServer(port=0, executor=lambda spec: {"makespan": 0.0}) as server:
        client = ServeClient(server.url)
        job = client.submit(json.loads(SPEC))
        client.wait(job["id"], timeout=10.0)
        yield server, job["id"].encode()
        # A handler still parked on a half-read request would be a thread.
        wait_until(lambda: threading.active_count() <= threads + 2)  # http + dispatcher
        assert client.healthy()


def exchange(server: JobServer, request: bytes) -> bytes:
    with socket.create_connection((server.host, server.port), timeout=2.0) as sock:
        try:
            sock.sendall(request + HEALTHZ)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused and closed while the rest was still being sent
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with bytes of ours unread; the reply came first
    return b"".join(chunks)


def check(raw: bytes) -> list:
    replies = parse_replies(raw)
    assert replies, "no reply at all"
    for status, _, body in replies:
        assert status == 100 or 200 <= status < 300 or 400 <= status < 500 or status == 501, (
            status,
            body,
        )
        if status >= 400:
            assert set(body) == {"error"}, body
    *earlier, (_, headers, body) = replies
    assert all("connection" not in h for _, h, _ in earlier), replies
    assert headers.get("connection") == "close" or body == {"ok": True, "version": __version__}
    return replies


noise = st.binary(max_size=12)
methods = st.sampled_from([b"GET", b"POST", b"DELETE", b"PUT", b"get", b"G ET", b""]) | noise
versions = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1.1x", b"http/1.1", b""]) | noise
endings = st.sampled_from([b"\r\n", b"\n", b"\r", b"", b"\r\n\r\n"])
bodies = st.sampled_from(
    [SPEC, b"", b"{}", b"[]", b"{", b'{"jobs": [%s, {"app": 7}]}' % SPEC, b"\xff\xfe", b"null"]
) | st.binary(max_size=40)


def targets(job_id: bytes):
    waits = st.sampled_from([b"0", b"0.01", b"1e9", b"-1", b"nan", b"inf", b"abc", b""]) | noise
    fixed = [b"/healthz", b"/stats", b"/jobs", b"/jobs/batch", b"/", b"", b"//jobs//", b"/jobs/nope",
             b"/jobs/%s" % job_id, b"/jobs/%s/result" % job_id, b"/jobs/%s/trace" % job_id,
             b"/jobs/%s/cancel" % job_id, b"/jobs/%s/explode" % job_id,
             b"/" + b"a" * MAX_LINE_BYTES]  # fmt: skip
    return (
        st.sampled_from(fixed)
        | waits.map(lambda w: b"/jobs/%s?wait=%s" % (job_id, w))
        | waits.map(lambda w: b"/jobs/%s?x=1&wait=%s&wait" % (job_id, w))
        | noise
    )


@st.composite
def requests(draw, job_id: bytes) -> bytes:
    body = draw(bodies)
    names = st.sampled_from(
        [b"Content-Length", b"content-length", b"Transfer-Encoding", b"Connection", b"Expect",
         b"Host", b"X-Pad", b" Folded", b"Bad Name", b"Content-Length ", b""]
    ) | noise  # fmt: skip
    values = st.sampled_from(
        [b"%d" % len(body), b"%d" % (len(body) + 3), b"%d" % max(len(body) - 1, 0), b"0", b"-1",
         b"+5", b"abc", b"9" * 30, b"close", b"keep-alive", b"chunked", b"100-continue",
         b"x" * MAX_LINE_BYTES]
    ) | noise  # fmt: skip
    header = st.tuples(names, st.sampled_from([b": ", b":", b" : ", b""]), values, endings)
    counts = st.lists(header, max_size=6) | st.lists(
        header, min_size=MAX_HEADERS - 1, max_size=MAX_HEADERS + 2
    )
    gap = st.sampled_from([b" ", b" ", b" ", b"  ", b"\t", b""])
    line = draw(methods) + draw(gap) + draw(targets(job_id)) + draw(gap) + draw(versions)
    head = b"".join(b"".join(parts) for parts in draw(counts))
    return line + draw(endings) + head + draw(endings) + body


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_reply_is_well_formed_json_and_nothing_hangs(served, data):
    server, job_id = served
    # Two parts mutated requests to one part noise: noise rarely gets past the request line.
    request = data.draw(st.binary(max_size=200) | requests(job_id) | requests(job_id))
    check(exchange(server, request))


@st.composite
def framed_requests(draw, job_id: bytes) -> bytes:
    """A well-formed request whose client knows where its body ends — and
    whose body is itself a well-formed request, should the server not."""
    body = draw(st.sampled_from([HEALTHZ, HEALTHZ * 2, SPEC + HEALTHZ]))
    n = len(body)
    framing = draw(st.sampled_from(
        [b"Content-Length: %d\r\n" % n,
         b"content-length:%d\r\nContent-Length: %d\r\n" % (n, n),
         b"Content-Length: %d\r\nContent-Length: 0\r\n" % n,
         b"Content-Length: 0\r\nContent-Length: %d\r\n" % n,
         b"Content-Length: %d\r\nExpect: 100-continue\r\n" % n,
         b"Transfer-Encoding: chunked\r\n",
         b"transfer-encoding:identity\r\n",
         b"Content-Length: %d\r\nTransfer-Encoding: chunked\r\n" % n,
         b"Transfer-Encoding: chunked\r\nContent-Length: 0\r\n",
         b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + n),
         b"Content-Length: lots\r\n", b"Content-Length: -%d\r\n" % n,
         b"Content-Length : %d\r\n" % n, b" Content-Length: %d\r\n" % n]
    ))  # fmt: skip
    line = draw(st.sampled_from(
        [b"POST /jobs", b"POST /jobs/batch", b"POST /jobs/%s/cancel" % job_id, b"POST /nowhere",
         b"GET /healthz", b"GET /jobs/%s?wait=0" % job_id, b"GET /jobs/nope", b"DELETE /jobs/x"]
    ))  # fmt: skip
    version = draw(st.sampled_from([b" HTTP/1.1\r\n", b" HTTP/1.0\r\nConnection: keep-alive\r\n"]))
    return line + version + b"Host: x\r\n" + framing + b"\r\n" + body


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_framed_body_is_never_answered_as_a_request(served, data):
    server, job_id = served
    replies = check(exchange(server, data.draw(framed_requests(job_id))))
    assert len([status for status, _, _ in replies if status != 100]) <= 2, replies


# --------------------------------------------------------- generated documents
JOB = {
    "app": "heat3d", "nodes": 2, "mix": "cpu", "preset": "laptop", "scale": "quick",
    "params": {"seed": 1, "functional_shape": [8, 8, 8]},
    "options": {"time_block": 2, "checkpoint_every": 2},
    "fault_plan": {
        **FaultPlan.lossy(seed=3, drop=0.1, delay=0.1, max_delay=1e-4).to_dict(),
        "degradations": [{"bandwidth_factor": 0.5, "src": 1, "t_end": "inf"}],
        "crashes": [{"rank": 1, "at_time": 0.5}],
    },
    "backend": None, "priority": 0, "trace": False,
}  # fmt: skip
CAMPAIGN = {
    "name": "fuzz",
    "axes": {"app": ["heat3d", "kmeans"], "preset": "laptop", "nodes": [1, 2], "mix": ["cpu"],
             "scale": "quick", "seed": [0, None], "fault_plan": [None, JOB["fault_plan"]]},
    "params": {}, "app_params": {"heat3d": {"simulated_steps": 2}},
    "options": {"checkpoint_every": 2},
    "app_options": {"kmeans": {}}, "backend": None, "trace": False, "points": [JOB],
}  # fmt: skip

#: The JSON shape of every top-level field and axis value, written out here
#: independently of the code under test: field -> the Python types its decoded
#: value may have (None for null).
STRING, INTEGER, OBJECT = (str,), (int,), (dict,)
JOB_SHAPES = {
    "app": STRING, "nodes": INTEGER, "mix": STRING, "preset": STRING, "scale": STRING,
    "params": OBJECT, "options": OBJECT, "fault_plan": (dict, None), "backend": (str, None),
    "priority": INTEGER, "trace": (bool,),
}  # fmt: skip
CAMPAIGN_SHAPES = {
    "name": STRING, "axes": OBJECT, "params": OBJECT, "app_params": OBJECT, "options": OBJECT,
    "app_options": OBJECT, "backend": (str, None), "trace": (bool,), "points": (list,),
}  # fmt: skip
AXIS_SHAPES = {
    "app": STRING, "preset": STRING, "nodes": INTEGER, "mix": STRING, "scale": STRING,
    "seed": (int, None), "fault_plan": (dict, None),
}  # fmt: skip

#: The same for each field of a fault plan's entries, by list; a ``t_end`` may
#: also be the string "inf", and a crash needs its ``rank`` and ``at_time``.
NUMBER, RANK = (int, float), (int, None)
FAULT_ENTRY_SHAPES = {
    "rules": {"drop_prob": NUMBER, "dup_prob": NUMBER, "delay_prob": NUMBER,
              "max_delay": NUMBER, "src": RANK, "dst": RANK, "t_start": NUMBER, "t_end": NUMBER},
    "degradations": {"bandwidth_factor": NUMBER, "extra_latency": NUMBER, "src": RANK,
                     "dst": RANK, "t_start": NUMBER, "t_end": NUMBER},
    "crashes": {"rank": INTEGER, "at_time": NUMBER, "restart_cost": NUMBER},
}  # fmt: skip
FAULT_ENTRY_REQUIRED = {"crashes": ("rank", "at_time")}


def shaped(value, kinds) -> bool:
    if isinstance(value, bool):  # a bool is no integer here
        return bool in kinds
    if kinds == (list,):  # points: a list of objects
        return isinstance(value, list) and all(isinstance(item, dict) for item in value)
    return any(value is None if kind is None else isinstance(value, kind) for kind in kinds)


def misshapen(doc: dict, shapes: dict, prefix: str) -> list[str]:
    """How the errors name the ill-shaped top-level fields of ``doc``; [] when
    a check that comes first (unknown field, missing 'app') would fire."""
    if set(doc) - set(shapes) or ("app" in shapes and "app" not in doc):
        return []
    return [f"{prefix} {name!r}" for name, value in doc.items() if not shaped(value, shapes[name])]


def campaign_misshapen(doc: dict) -> list[str]:
    if "name" not in doc or "axes" not in doc:
        return []
    bad = misshapen(doc, CAMPAIGN_SHAPES, "field")
    if bad or set(doc) - set(CAMPAIGN_SHAPES):
        return bad
    for scope in ("app_params", "app_options"):
        bad += [f"{scope}[{app!r}]" for app, v in doc.get(scope, {}).items() if not shaped(v, OBJECT)]
    for axis, values in doc["axes"].items():
        values = values if isinstance(values, list) else [values]
        if axis in AXIS_SHAPES and not all(shaped(v, AXIS_SHAPES[axis]) for v in values):
            bad.append(f"axis {axis!r} value")
    return bad


def plan_faults(plan: dict) -> list[str] | None:
    """None when every shape in fault-plan document ``plan`` is right; else the
    text the error must hold, one of (the first fault, in the order the plan
    is read: its keys, seed, then each list and its entries in turn).  A
    well-shaped entry is built, and its values checked, before the next is
    read, so behind one the error need only exist (text "")."""
    unknown = set(plan) - {"seed", *FAULT_ENTRY_SHAPES}
    if unknown:
        return [str(sorted(unknown))]
    if not shaped(plan.get("seed", 0), INTEGER):
        return ["seed must be"]
    built = False
    for name, shapes in FAULT_ENTRY_SHAPES.items():
        entries = plan.get(name, [])
        if not shaped(entries, (list,)):
            return [""] if built else [f"{name} must be"]
        for entry in entries:
            unknown = set(entry) - set(shapes)
            missing = [f for f in FAULT_ENTRY_REQUIRED.get(name, ()) if f not in entry]
            bad = [
                f"field {f!r} must be"
                for f, v in entry.items()
                if f in shapes and not (f == "t_end" and v == "inf") and not shaped(v, shapes[f])
            ]
            if unknown or missing or bad:
                named = [str(sorted(unknown))] if unknown else [repr(f) for f in missing] or bad
                return [""] if built else named
            built = True
    return None


def plan_accepted(plan: dict) -> bool:
    """Whether ``FaultPlan.from_dict`` builds ``plan``; it must refuse, with
    the text :func:`plan_faults` asks for, every ill-shaped one."""
    faults = plan_faults(plan)
    try:
        FaultPlan.from_dict(plan)
    except ValidationError as exc:
        assert faults is None or any(text in str(exc) for text in faults), (faults, exc)
        return False
    assert faults is None, f"accepted a fault plan whose {faults} is ill-shaped"
    return True


@pytest.mark.parametrize(
    "name, field", [(name, field) for name, shapes in FAULT_ENTRY_SHAPES.items() for field in shapes]
)
def test_every_fault_plan_entry_field_is_judged_by_its_shape(name, field):
    # The generated documents reach one entry field per example; this reaches each.
    base = {"rank": 0, "at_time": 0.0} if name == "crashes" else {}
    for value in ("x", True, [1], {"seed": 1}, None, 0.5, 2):
        plan_accepted({name: [{**base, field: value}]})


def raises_naming(bad: list[str], parse):
    """``parse()``'s spec, or None if it raised ValidationError; which must
    name one of the ``bad`` fields when there are any."""
    try:
        spec = parse()
    except ValidationError as exc:
        assert not bad or any(f"{name} must be" in str(exc) for name in bad), (bad, exc)
        return None
    assert not bad, f"accepted a document whose {bad} are ill-shaped"
    return spec


def same(a: dict, b: dict) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)  # NaN == NaN here


scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([2**63, -(2**70), 10**40, "heat3d", "cpu", "laptop", "processes", "inf"])
)  # fmt: skip
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["seed", "rules", "src", "heat3d", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every key / index path into a document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc: dict) -> dict:
    """``doc`` with one to three values replaced (or, now and then, a key dropped)."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(list(_paths(doc))))
        target = doc
        for key in parents:
            target = target[key]
        if isinstance(target, dict) and draw(st.integers(0, 9)) == 0:
            del target[last]
        else:
            target[last] = draw(json_values)
    return doc


def post(server: JobServer, path: bytes, doc) -> tuple[int, object]:
    body = json.dumps(doc).encode()
    head = b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % (path, len(body))
    status, _, reply = check(exchange(server, head + body))[0]
    return status, reply


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(JOB))
@example(doc={**JOB, "app": ["heat3d"]})
@example(doc={**JOB, "params": "x"})
@example(doc={**JOB, "fault_plan": {"seed": "x"}})
@example(doc={**JOB, "nodes": True})
@example(doc={**JOB, "params": []})
@example(doc={**JOB, "options": []})
@example(doc={**JOB, "fault_plan": []})
@example(doc={**JOB, "mix": ["cpu"]})
@example(doc={**JOB, "preset": ["laptop"]})
@example(doc={**JOB, "scale": 1})
@example(doc={**JOB, "backend": 7})
@example(doc={**JOB, "priority": True})
@example(doc={**JOB, "trace": "yes"})
@example(doc={**JOB, "fault_plan": {"rules": "x"}})
@example(doc={**JOB, "fault_plan": {"rules": [{"src": "x"}, {"src": 1}]}})
@example(doc={**JOB, "fault_plan": {"crashes": [{"rank": 1, "at_time": 0.0, "consumed": 1}]}})
@example(doc={**JOB, "fault_plan": {"crashes": [{"rank": 1.5, "at_time": 0.0}]}})
@example(doc={**JOB, "fault_plan": {"crashes": [{"at_time": 0.0}]}})
@example(doc={**JOB, "fault_plan": {"rules": [{"src": 0.5}]}})
@example(doc={**JOB, "fault_plan": {"rules": [{"dst": 0.5}]}})
@example(doc={**JOB, "fault_plan": {"rules": [{"drop_prob": None}]}})
@example(doc={**JOB, "fault_plan": {"degradations": [{"t_end": None}]}})
def test_a_job_document_is_a_spec_or_a_400(served, doc):
    server, _ = served
    spec = raises_naming(misshapen(doc, JOB_SHAPES, "field"), lambda: JobSpec.from_dict(doc))
    if isinstance(doc.get("fault_plan"), dict) and not plan_accepted(doc["fault_plan"]):
        assert spec is None, "accepted a job whose fault plan is ill-shaped"
    if spec is not None:
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert same(again.to_dict(), spec.to_dict())
        assert again.content_hash() == spec.content_hash()
    refused = spec is None or spec.ranks > 64  # the server's default rank budget
    status, reply = post(server, b"/jobs", doc)
    assert status == 400 if refused else status in (200, 202), reply
    # In a batch, the same document is one entry's error and fails nothing else.
    status, reply = post(server, b"/jobs/batch", {"jobs": [doc, JOB]})
    assert status == 200 and len(reply["jobs"]) == 2, reply
    assert ("id" in reply["jobs"][0]) != refused and "id" in reply["jobs"][1], reply


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(CAMPAIGN))
@example(doc={**CAMPAIGN, "name": ["x"]})
@example(doc={**CAMPAIGN, "axes": ["heat3d"]})
@example(doc={**CAMPAIGN, "axes": {"app": [["heat3d"]]}})
@example(doc={**CAMPAIGN, "axes": {"app": {"heat3d": 1}}})
@example(doc={**CAMPAIGN, "axes": {"app": "heat3d", "preset": [1]}})
@example(doc={**CAMPAIGN, "axes": {"app": "heat3d", "nodes": [True]}})
@example(doc={**CAMPAIGN, "axes": {"app": "heat3d", "mix": [["cpu"]]}})
@example(doc={**CAMPAIGN, "axes": {"app": "heat3d", "scale": [{}]}})
@example(doc={**CAMPAIGN, "axes": {"app": "heat3d", "seed": ["x"]}})
@example(doc={**CAMPAIGN, "axes": {"app": "heat3d", "fault_plan": ["x"]}})
@example(doc={**CAMPAIGN, "params": "x"})
@example(doc={**CAMPAIGN, "app_params": "x"})
@example(doc={**CAMPAIGN, "app_params": {"heat3d": "x"}})
@example(doc={**CAMPAIGN, "options": []})
@example(doc={**CAMPAIGN, "app_options": "x"})
@example(doc={**CAMPAIGN, "app_options": {"kmeans": []}})
@example(doc={**CAMPAIGN, "backend": 3})
@example(doc={**CAMPAIGN, "trace": "yes"})
@example(doc={**CAMPAIGN, "points": "x"})
@example(doc={**CAMPAIGN, "points": [5]})
@example(doc={**CAMPAIGN, "axes": {"app": "heat3d", "fault_plan": [{"rules": [{"src": 0.5}]}]}})
def test_a_campaign_document_is_a_campaign_or_a_validation_error(doc):
    campaign = raises_naming(campaign_misshapen(doc), lambda: CampaignSpec.from_dict(doc))
    if campaign is None:
        return
    again = CampaignSpec.from_dict(json.loads(json.dumps(campaign.to_dict())))
    assert same(again.to_dict(), campaign.to_dict())
    plans = [plan for plan in campaign.axis("fault_plan") if plan is not None]
    ill_shaped = not all([plan_accepted(plan) for plan in plans])
    try:
        specs = campaign.expand()
    except ValidationError:
        return
    assert not ill_shaped, "expanded a campaign whose fault plan is ill-shaped"
    assert len(specs) == campaign.n_points()
    for spec in specs:
        spec.content_hash()


def test_a_document_too_deep_or_too_large_to_handle_is_a_400(served):
    server, _ = served
    deep = []
    for _ in range(900):  # nested past what copying and hashing it could recurse through
        deep = [deep]
    for parse in (
        lambda: JobSpec.from_dict({**JOB, "params": {"seed": deep}}),
        lambda: CampaignSpec.from_dict({**CAMPAIGN, "params": {"seed": deep}}),
    ):
        with pytest.raises(ValidationError, match="deeper than"):
            parse()
    for body in (
        b'{"app": "heat3d", "params": {"seed": %s}}' % (b"[" * 900 + b"]" * 900),
        b"[" * 100_000 + b"]" * 100_000,  # too deep for the JSON parser itself
        b'{"app": "heat3d", "nodes": %s}' % (b"9" * 5000),  # past int()'s digit limit
    ):
        head = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
        status, _, reply = check(exchange(server, head + body))[0]
        assert status == 400 and re.search("deeper than|invalid JSON", reply["error"]), reply
