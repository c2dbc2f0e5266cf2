"""Instance files that are not instances: only typed errors, and exit 2.

``load_instance_payload`` takes whatever ``json.load`` returned.  Any value
it cannot load must raise an ``OnlinePackError`` subclass, and ``onlinepack
run`` on such a file must exit 2 without a traceback.  The properties run
over arbitrary JSON values and over valid payloads with a key dropped or a
value replaced.  Sizes stay small (T, n, n_events <= 8 in the valid
payloads, integers <= 9 in the replacements) and the CLI plays one
episode, so no example allocates or loops without bound.  Every JSON
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
from onlinepack.model import (demo_tree, generate_nrm, generative_payload,
                              load_instance_payload, tree_to_payload)

FIELDS = ["kind", "T", "m", "b", "L", "iota", "tree", "nodes", "prefix_id",
          "parent_id", "prob", "Z", "a", "obs", "structure", "U", "generator",
          "family", "seed", "budget_ratio", "n_events", "encoding", "n",
          "delta", "n_offline", "n_online", "n_scenarios"]

scalars = (st.none() | st.booleans() | st.integers(-3, 9)
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
    generative_payload("nrm", {"seed": 2, "T": 8, "m": 2, "L": 1,
                               "iota": 0.5, "budget_ratio": 0.5,
                               "n_events": 3}, {"V": 1}),
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


@pytest.mark.parametrize("payload", [
    [],                                   # AttributeError: a list
    {"kind": "explicit"},                 # KeyError: 'T'
    _explicit(T="x"),                     # ValueError at int("x")
    _with_node(a=[[0, 1.0, 2.0]]),        # ValueError: a pair of length 3
    _with_node(obs="ab"),                 # ValueError: float("a")
    _generative(node_cap=5),              # TypeError: unknown generator key
    _generative(n_events="3"),            # TypeError: a string count
    _encoded(n="4"),                      # TypeError: a string size
    _explicit(iota=10 ** 400),            # OverflowError at float()
    _explicit(T=2.5),                     # int(2.5) would give T = 2
    _explicit(T=2.0),
    _explicit(m=True),
    _generative(T=3.0),
    _encoded(delta=2.0),
    {k: v for k, v in _explicit().items() if k != "tree"},
    _with_node(a=[[0.7, 1.0]]),           # int(0.7) would read resource 0
    _with_node(a=[[True, 1.0]], tree=generate_nrm(   # bool(1) as resource 1
        seed=1, T=2, m=2, L=2, iota=0.4, budget_ratio=0.5)),
    _with_node(1, parent_id=0.0),
    _with_node(prefix_id=0.0),
    _explicit(schema_version=99),
    _explicit(schema_version="1"),
    _explicit(schema_version=1.0),
    _explicit(structure={"V": 1}),        # explicit trees derive V
    dict(_encoded(), structure={"V": 1}),
    dict(_generative(), structure={"U": 2, "V": 1, "W": 2}),
    _explicit(iota="1.0"),                # float("1.0") would read 1.0
    _explicit(b=["1.0"]),
    _with_node(prob="1.0"),
    _with_node(Z="0.5"),
    _with_node(obs=["0"]),
    _with_node(a=[[0, "1.0"]]),
    _explicit(iota=True),                 # float(True) would read 1.0
    _with_node(prob=True),
    _with_node(Z=False),
    _generative(iota=True, budget_ratio=True),
], ids=lambda p: json.dumps(p)[:48])
def test_malformed_payload_is_an_instance_error(payload):
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
