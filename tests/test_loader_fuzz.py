"""Instance files that are not instances: only typed errors, and exit 2.

``load_instance_payload`` takes whatever ``json.load`` returned.  Any value
it cannot load must raise an ``OnlinePackError`` subclass, and ``onlinepack
run`` on such a file must exit 2 without a traceback.  The properties run
over arbitrary JSON values and over valid payloads with a key dropped or a
value replaced.  Sizes stay small (T, n, n_events <= 8 in the valid
payloads) and the CLI plays one episode.  A replacement integer is either
at most 9 or above the instance size cap, up to 10^9: the loader must
refuse every size above the cap before it builds anything, so no example
allocates or loops without bound.  Every JSON
integer in the valid payloads is an id, a size, a seed or the schema
version, so each must also refuse its float and bool twins; every float is
a number, so each must refuse its string and bool twins.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinepack.cli import main
from onlinepack.errors import InstanceError, OnlinePackError
from onlinepack.model import (_INSTANCE_SIZE_CAP, TreeBuilder, demo_tree,
                              generate_nrm, generative_payload,
                              load_instance_payload, tree_to_payload)

FIELDS = ["kind", "T", "m", "b", "L", "iota", "tree", "nodes", "prefix_id",
          "parent_id", "prob", "Z", "a", "obs", "structure", "U", "generator",
          "family", "seed", "budget_ratio", "n_events", "encoding", "n",
          "delta", "n_offline", "n_online", "n_scenarios"]

above_cap = st.integers(_INSTANCE_SIZE_CAP + 1, 10 ** 9)
scalars = (st.none() | st.booleans() | st.integers(-3, 9) | above_cap
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(["", "x", "3", "nrm", "is", "mwm", "mmo",
                              "explicit", "generative", "encoded"]))
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2), kids,
                      max_size=5),
    max_leaves=16)


VALID = [
    tree_to_payload(demo_tree()),
    tree_to_payload(generate_nrm(seed=1, T=2, m=2, L=2, iota=0.4,
                                 budget_ratio=0.5)),
    dict(generative_payload("nrm", {"seed": 2, "T": 8, "m": 2, "L": 1,
                                    "iota": 0.5, "budget_ratio": 0.5,
                                    "n_events": 3}), structure={"V": 1}),
    {"kind": "encoded",
     "encoding": {"family": "is", "seed": 1, "n": 6, "delta": 2}},
    {"kind": "encoded",
     "encoding": {"family": "mwm", "seed": 1, "n": 5, "delta": 2}},
    {"kind": "encoded",
     "encoding": {"family": "mmo", "seed": 1, "n_offline": 3,
                  "n_online": 3, "delta": 2}},
]


def _paths(value, path=()):
    """Every path into a nested JSON value, the value's own () first."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _at(value, path):
    """The value at ``path`` inside a nested JSON value."""
    for k in path:
        value = value[k]
    return value


@st.composite
def mutated_payloads(draw):
    """A valid payload with one to three keys dropped or values replaced."""
    payload = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(payload) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _at(payload, path[:-1])
        old = parent[path[-1]]
        if draw(st.booleans()):
            del parent[path[-1]]
        elif isinstance(old, (dict, list)):
            parent[path[-1]] = draw(json_values)
        elif type(old) is int:  # an id or size may turn float or bool
            parent[path[-1]] = draw(st.sampled_from(_twins(old)) | scalars)
        else:  # a scalar gets a scalar, so more mutants load and run
            parent[path[-1]] = draw(scalars)
    return payload


def _twins(value: int) -> list:
    """The float and the bool that JSON would carry for an integer."""
    return [float(value), value == 1]


def _float_twins(value: float) -> list:
    """The string and the bool that JSON would carry for a float."""
    return [str(value), bool(value)]


def _load_refuses(payload) -> bool:
    try:
        load_instance_payload(payload)
    except OnlinePackError:
        return True
    return False


@settings(max_examples=300)
@given(payload=json_values | mutated_payloads())
def test_loader_raises_only_typed_errors(payload):
    _load_refuses(payload)  # any other exception fails the test


@settings(max_examples=100)
@given(payload=st.one_of(json_values, mutated_payloads(), mutated_payloads()))
def test_run_on_any_instance_file_exits_without_traceback(payload):
    refused = _load_refuses(payload)
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "inst.json"
        inst.write_text(json.dumps(payload))
        exp = Path(tmp) / "exp.json"
        exp.write_text(json.dumps({
            "instance": str(inst), "policy": "lp",
            "solver": {"epsilon": 0.2, "theta": 0.5, "alpha": 0.1, "K": 2,
                       "eta1": 2, "eta2": 1, "master_seed": 3}}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(exp), "--episodes", "1"])
    assert code == 2 if refused else code in (0, 2)
    assert "Traceback" not in err.getvalue()


def _explicit(**changes):
    return dict(tree_to_payload(demo_tree()), **changes)


def _generative(**changes):
    return generative_payload("nrm", dict(
        {"seed": 2, "T": 3, "m": 2, "L": 1, "iota": 0.5, "budget_ratio": 0.5},
        **changes))


def _encoded(**changes):
    return {"kind": "encoded",
            "encoding": dict({"family": "is", "seed": 1, "n": 4, "delta": 2},
                             **changes)}


def _with_node(j=0, tree=None, **changes):
    payload = tree_to_payload(tree or demo_tree())
    payload["tree"]["nodes"][j].update(changes)
    return payload


# case name (the field it breaks) -> payload
MALFORMED = {
    "payload-is-a-list": [],                    # AttributeError
    "explicit-without-T": {"kind": "explicit"},  # KeyError: 'T'
    "T-string": _explicit(T="x"),
    "node-a-pair-of-three": _with_node(a=[[0, 1.0, 2.0]]),
    "node-obs-string": _with_node(obs="ab"),    # ValueError: float("a")
    "generator-unknown-key": _generative(node_cap=5),
    "generator-n_events-string": _generative(n_events="3"),
    "encoding-n-string": _encoded(n="4"),
    "iota-overflow": _explicit(iota=10 ** 400),  # OverflowError at float()
    "T-float": _explicit(T=2.5),                # int(2.5) would give T = 2
    "T-integral-float": _explicit(T=2.0),
    "m-bool": _explicit(m=True),
    "generator-T-float": _generative(T=3.0),
    "encoding-delta-float": _encoded(delta=2.0),
    "explicit-without-tree":
        {k: v for k, v in _explicit().items() if k != "tree"},
    "node-resource-id-float": _with_node(a=[[0.7, 1.0]]),  # not resource 0
    "node-resource-id-bool": _with_node(a=[[True, 1.0]], tree=generate_nrm(
        seed=1, T=2, m=2, L=2, iota=0.4, budget_ratio=0.5)),
    "node-parent_id-float": _with_node(1, parent_id=0.0),
    "node-prefix_id-float": _with_node(prefix_id=0.0),
    "schema_version-99": _explicit(schema_version=99),
    "schema_version-string": _explicit(schema_version="1"),
    "schema_version-float": _explicit(schema_version=1.0),
    "explicit-structure": _explicit(structure={"V": 1}),  # trees derive V
    "encoded-structure": dict(_encoded(), structure={"V": 1}),
    "structure-U-and-W":
        dict(_generative(), structure={"U": 2, "V": 1, "W": 2}),
    # V must lie in [1, max(m, 1)]; the generator has m = 2
    "structure-V-negative": dict(_generative(), structure={"V": -5}),
    "structure-V-zero": dict(_generative(), structure={"V": 0}),
    "structure-V-above-m": dict(_generative(), structure={"V": 3}),
    "structure-V-bool": dict(_generative(), structure={"V": True}),
    "iota-string": _explicit(iota="1.0"),       # float("1.0") would read 1.0
    "b-string": _explicit(b=["1.0"]),
    "node-prob-string": _with_node(prob="1.0"),
    "node-Z-string": _with_node(Z="0.5"),
    "node-obs-entry-string": _with_node(obs=["0"]),
    "node-a-value-string": _with_node(a=[[0, "1.0"]]),
    "iota-bool": _explicit(iota=True),          # float(True) would read 1.0
    "node-prob-bool": _with_node(prob=True),
    "node-Z-bool": _with_node(Z=False),
    "generator-iota-and-budget_ratio-bool":
        _generative(iota=True, budget_ratio=True),
    # sizes that would exhaust memory or time, refused before any build
    "generator-T-above-cap": _generative(T=10 ** 8),
    "generator-m-above-cap": _generative(m=10 ** 6),
    "generator-n_events-above-cap": _generative(n_events=10 ** 6),
    "is-T-above-cap": _encoded(n=10 ** 6),
    "is-implied-m-above-cap": _encoded(delta=10 ** 5),
    "mwm-implied-T-above-cap": _encoded(family="mwm", n=1000, delta=1000),
    "mmo-n_offline-above-cap": {"kind": "encoded", "encoding": {
        "family": "mmo", "seed": 1, "n_offline": 10 ** 9,
        "n_online": 2 - 10 ** 9, "delta": 2}},
    "n_scenarios-x-T-above-cap": _encoded(n_scenarios=50_000),
}


@pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_payload_is_an_instance_error(payload):
    with pytest.raises(InstanceError):
        load_instance_payload(payload)


# the fields that size what a generative or encoded payload builds
SIZES = {"T", "m", "n_events", "n", "delta", "n_offline", "n_online",
         "n_scenarios"}


@settings(max_examples=100)
@given(data=st.data())
def test_every_size_above_the_cap_is_refused(data):
    payload = json.loads(json.dumps(data.draw(st.sampled_from(VALID))))
    payload.get("encoding", {}).setdefault("n_scenarios", 3)
    path = data.draw(st.sampled_from(
        [p for p in _paths(payload) if p and p[-1] in SIZES]))
    _at(payload, path[:-1])[path[-1]] = data.draw(above_cap)
    with pytest.raises(InstanceError):
        load_instance_payload(payload)


def test_valid_payloads_load():
    for payload in VALID:
        assert load_instance_payload(payload).sim.instance.T >= 1


def _twins_that_load(kind: type, twins) -> list:
    """(path, twin) for each twin of a ``kind`` value in the valid payloads
    that loads in that value's place."""
    loaded = []
    for payload in VALID:
        for path in (p for p in _paths(payload) if type(_at(payload, p)) is kind):
            for twin in twins(_at(payload, path)):
                mutant = json.loads(json.dumps(payload))
                _at(mutant, path[:-1])[path[-1]] = twin
                if not _load_refuses(mutant):
                    loaded.append((path, twin))
    return loaded


def test_every_integer_refuses_its_float_and_bool_twins():
    # in the valid payloads every JSON integer is an id, a size, a seed or
    # the schema version, and none may be read from a float or a bool
    assert _twins_that_load(int, _twins) == []


def test_every_float_refuses_its_string_and_bool_twins():
    # every JSON float in the valid payloads is a budget, a probability, a
    # reward, an observation entry, a consumption value, iota or a budget
    # ratio, and none may be read from a string or a bool
    assert _twins_that_load(float, _float_twins) == []


def test_run_refuses_a_horizon_above_the_cap(tmp_path, capsys):
    # a horizon the first decision could not simulate in memory
    inst, exp = tmp_path / "inst.json", tmp_path / "exp.json"
    inst.write_text(json.dumps(_generative(T=10 ** 8)))
    exp.write_text(json.dumps({
        "instance": str(inst), "policy": "nrm",
        "solver": {"epsilon": 0.2, "theta": 0.5, "alpha": 0.1, "K": 2,
                   "eta1": 2, "eta2": 1, "master_seed": 3}}))
    assert main(["run", "--config", str(exp), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert "T = 100000000 exceeds the instance size cap" in err
    assert "Traceback" not in err


def test_run_refuses_a_structure_V_out_of_range(tmp_path, capsys):
    # it would set the default theta of anyone reading v_or_default()
    inst, exp = tmp_path / "inst.json", tmp_path / "exp.json"
    inst.write_text(json.dumps(dict(_generative(), structure={"V": -5})))
    exp.write_text(json.dumps({
        "instance": str(inst), "policy": "nrm",
        "solver": {"epsilon": 0.2, "theta": 0.5, "alpha": 0.1, "K": 2,
                   "eta1": 2, "eta2": 1, "master_seed": 3}}))
    assert main(["run", "--config", str(exp), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert "structure constant V must be an integer in [1, max(m, 1)]" in err
    assert "Traceback" not in err


def _resource_named_twice():
    """The demo payload with L 2, iota 0.5 and ``"a": [[0, 0.5], [0, 0.5]]``
    at every node.  Were it loaded, the oracles would disagree: the pack DP
    read one pair per node (1.1), the enumeration and the LP both (0.6)."""
    payload = _explicit(L=2, iota=0.5)
    for node in payload["tree"]["nodes"]:
        node["a"] = [[0, 0.5], [0, 0.5]]
    return payload


def test_a_resource_named_twice_is_refused(tmp_path, capsys):
    with pytest.raises(InstanceError, match="resource 0 is named twice"):
        load_instance_payload(_resource_named_twice())
    tb = TreeBuilder(T=1, m=1, b=(1.0,), L=2, iota=0.5)
    with pytest.raises(InstanceError, match="resource 0 is named twice"):
        tb.add(None, (0.0,), 1.0, z=0.5, a=[(0, 0.5), (0, 0.5)])
    inst, exp = tmp_path / "inst.json", tmp_path / "exp.json"
    inst.write_text(json.dumps(_resource_named_twice()))
    exp.write_text(json.dumps({
        "instance": str(inst), "policy": "lp",
        "solver": {"epsilon": 0.2, "theta": 0.5, "alpha": 0.1, "K": 2,
                   "eta1": 2, "eta2": 1, "master_seed": 3}}))
    assert main(["run", "--config", str(exp), "--episodes", "1"]) == 2
    assert main(["verify", "--instance", str(inst)]) == 2
    err = capsys.readouterr().err
    assert err.count("resource 0 is named twice") == 2
    assert "Traceback" not in err
