"""Static checks that ``src/onlinepack`` carries no dead code.

Six kinds of leftovers are caught with the standard-library ``ast`` module:
an import a module never uses, a module-private (``_name``) function or
method that nothing in the package references outside its own body, a
module-level private assignment (``_NAME = ...``) that nothing in the
package reads, a class-level constant (a plain assignment in a class body,
other than ``__slots__``) that nothing in the package reads, a function
parameter (other than ``self`` or ``cls``) that its body never reads, and
a defaulted parameter of a private function that no call in the package
passes.
A seventh check reads the benchmark harness too: a defaulted parameter of a
public function that no call in the package or the harness passes.
``__init__.py`` only re-exports the public API, so its imports count as used.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "onlinepack"
PERFBENCH = SRC.parent.parent / "perfbench"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> Counter:
    """Names read as a bare name or as an attribute anywhere under ``node``."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def test_modules_found():
    assert {"engine.py", "penalty.py", "policies.py", "cli.py"} <= set(_modules())


def test_no_unused_imports():
    unused = []
    for name, module in _modules().items():
        if name == "__init__.py":
            continue
        refs = _references(module)
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if not refs[bound]:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_no_unreferenced_private_functions():
    modules = _modules()
    refs: Counter = Counter()
    own: Counter = Counter()  # references from inside the function's own body
    defined = {}
    for name, module in modules.items():
        refs.update(_references(module))
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    node.name.startswith("_") and not node.name.endswith("__"):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
                own[node.name] += _references(node)[node.name]
    dead = [f"{fn} ({where})" for fn, where in sorted(defined.items())
            if refs[fn] - own[fn] <= 0]
    assert dead == []


def _reads(modules: dict[str, ast.Module]) -> Counter:
    """Names read as a bare name or as an attribute anywhere in the package."""
    reads: Counter = Counter()
    for module in modules.values():
        for sub in ast.walk(module):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                reads[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                reads[sub.attr] += 1
    return reads


def _unread_private_constants(modules: dict[str, ast.Module]) -> list[str]:
    reads = _reads(modules)
    assigned = {}
    for name, module in modules.items():
        for stmt in module.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for sub in (n for t in targets for n in ast.walk(t)):
                    if isinstance(sub, ast.Name) and sub.id.startswith("_") \
                            and not sub.id.endswith("__"):
                        assigned.setdefault(sub.id, f"{name}:{stmt.lineno}")
    return [f"{const} ({where})" for const, where in sorted(assigned.items())
            if not reads[const]]


def test_no_unread_private_constants():
    assert _unread_private_constants(_modules()) == []


def test_unread_private_constant_is_caught():
    planted = ast.parse("from .model import EMPTY_PREFIX, PathDraw\n"
                        "_UNREAD_DRAW = PathDraw(EMPTY_PREFIX, ())\n")
    modules = dict(_modules(), planted=planted)
    assert _unread_private_constants(modules) == ["_UNREAD_DRAW (planted:2)"]


def _unread_class_constants(modules: dict[str, ast.Module]) -> list[str]:
    """Plain assignments in a class body, other than ``__slots__``, whose
    names nothing in the package reads."""
    reads = _reads(modules)
    unread = []
    for name, module in modules.items():
        for cls in (n for n in ast.walk(module) if isinstance(n, ast.ClassDef)):
            for stmt in (s for s in cls.body if isinstance(s, ast.Assign)):
                for sub in (n for t in stmt.targets for n in ast.walk(t)):
                    if isinstance(sub, ast.Name) and sub.id != "__slots__" \
                            and not reads[sub.id]:
                        unread.append(f"{cls.name}.{sub.id} ({name}:{stmt.lineno})")
    return sorted(unread)


def test_no_unread_class_constants():
    assert _unread_class_constants(_modules()) == []


def test_unread_class_constant_is_caught():
    planted = ast.parse("class _Report:\n"
                        "    __slots__ = ('total',)\n"
                        "    FIELDS = ('total', 'count')\n"
                        "    SCALE = 2\n"
                        "    def scaled(self):\n"
                        "        return self.total * self.SCALE\n")
    modules = dict(_modules(), planted=planted)
    assert _unread_class_constants(modules) == ["_Report.FIELDS (planted:3)"]


def _parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
    args = fn.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg) if a is not None]


def test_no_unread_parameters():
    unread = []
    for name, module in _modules().items():
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and not isinstance(sub.ctx, ast.Store)}
            fn = getattr(node, "name", "<lambda>")
            unread += [f"{name}:{node.lineno} {fn}({param})"
                       for param in _parameters(node)
                       if param not in ("self", "cls") and param not in read]
    assert unread == []


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` may set ``param`` (at position ``index``, if any)."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def _unset_options(modules: dict[str, ast.Module], callers: dict[str, ast.Module],
                   public: bool) -> list[str]:
    """Defaulted parameters of the public (or the private) functions defined
    in ``modules`` that no call in ``callers`` passes.

    A method's ``self`` or ``cls`` is not counted among the positions a
    call fills.
    """
    defs, calls = [], []
    for name, module in modules.items():
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    node.name.startswith("_") != public and \
                    not node.name.endswith("__"):
                defs.append((name, node))
    for module in callers.values():
        calls += [node for node in ast.walk(module) if isinstance(node, ast.Call)]
    unset = []
    for name, fn in defs:
        args = fn.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        defaulted = positional[len(positional) - len(args.defaults):] \
            if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        mine = [c for c in calls if fn.name in
                (getattr(c.func, "id", None), getattr(c.func, "attr", None))]
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(_passes(c, param, index) for c in mine):
                unset.append(f"{fn.name}({param}) ({name}:{fn.lineno})")
    return sorted(unset)


def _unset_private_options(modules: dict[str, ast.Module]) -> list[str]:
    """Defaulted parameters of private functions that no call passes.

    Such a default is a constant in disguise: every caller gets it, so it
    belongs in the body.
    """
    return _unset_options(modules, modules, public=False)


def test_no_unset_private_options():
    assert _unset_private_options(_modules()) == []


def test_unset_private_option_is_caught():
    planted = ast.parse("def _scaled(x, factor=2, *, shift=0):\n"
                        "    return x * factor + shift\n"
                        "def _offset(self, x, by=1):\n"
                        "    return x + by\n"
                        "a = _scaled(1, shift=1)\n"
                        "b = obj._offset(1, 2)\n")
    modules = dict(_modules(), planted=planted)
    assert _unset_private_options(modules) == ["_scaled(factor) (planted:1)"]


def _test_only_options(modules: dict[str, ast.Module]) -> list[str]:
    """Defaulted parameters of public functions that no call in the package
    or in the benchmark harness passes.

    Only a test can set such an option, so every user gets the default: it
    is a constant in disguise.  ``cli.main(argv)`` is exempt, because the
    console entry point calls ``main()`` with no argument.
    """
    callers = dict(modules)
    for path in sorted(PERFBENCH.glob("*.py")):
        callers[f"perfbench/{path.name}"] = ast.parse(
            path.read_text(encoding="utf-8"), str(path))
    return [option for option in _unset_options(modules, callers, public=True)
            if not option.startswith("main(argv) (cli.py:")]


def test_no_test_only_options():
    assert _test_only_options(_modules()) == []


def test_test_only_option_is_caught():
    planted = ast.parse("def scaled(x, factor=2, *, shift=0):\n"
                        "    return x * factor + shift\n"
                        "class Meter:\n"
                        "    def read(self, x, unit='s'):\n"
                        "        return x\n"
                        "def _helper(x, by=1):\n"
                        "    return scaled(x, shift=by) + Meter().read(x, 'ms')\n")
    modules = dict(_modules(), planted=planted)
    assert _test_only_options(modules) == ["scaled(factor) (planted:1)"]
