"""RL005: stats/counter mutations happen under the owning lock.

The PR 8 aggregation-bug class: transport stats were double-counted because
mutation paths and the registry disagreed about ownership.  In any class
that declares its own lock, incrementing shared counters outside that lock
is either a torn read/write (threads) or an accounting bug waiting for one.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import call_name, dotted_name
from repro.analysis.core import Checker

_LOCK_CONSTRUCTORS = frozenset(
    {"threading.Lock", "threading.RLock", "Lock", "RLock", "multiprocessing.Lock"}
)


class StatsLockChecker(Checker):
    id = "RL005"
    name = "stats-counter-safety"
    scopes = ("src",)
    fix_hint = (
        "wrap the mutation in `with self.<lock>:` (RLock makes this safe even "
        "when callers already hold it), or move the counter under the lock's "
        "owner"
    )
    explain = """\
RL005 stats-counter-safety (src/ only)

In any class whose __init__ declares a lock attribute
(`self._lock = threading.Lock()/RLock()`), every augmented assignment to an
instance attribute (`self.hits += 1`, `self.stats.bytes_shipped += n`,
`self.stats["frame_errors"] += 1`) must sit lexically inside
`with self.<that lock>:` — or the whole method must carry a lock-taking
decorator (any decorator whose name mentions "lock", e.g.
`@_holding_store_lock`).  __init__ itself and after-fork re-init methods
are exempt (single-threaded by construction).

Why: the PR 8 transport-stats double count came from mutation paths
disagreeing with the stats registry about ownership.  Counters feed
`summary()`, ServiceStats, and the CI benchmark gates — a torn increment is
a silently wrong gate.  Helpers that are ONLY called with the lock held
still pass trivially once wrapped (the stores use RLock precisely so
re-entry is free); truly lock-free counters (single-threaded contexts)
carry a suppression saying so.
"""

    def check_module(self, module):
        classes = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for klass in classes.values():
            yield from self._check_class(module, klass, classes)

    def _check_class(self, module, klass: ast.ClassDef, classes: dict):
        lock_attr = self._effective_lock(klass, classes)
        if lock_attr is None:
            return
        lock_path = f"self.{lock_attr}"
        for method in klass.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = method.name.lower()
            if method.name == "__init__" or ("fork" in name and "child" in name):
                continue
            if self._lock_decorated(method):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.AugAssign):
                    continue
                target = self._self_counter_path(node.target)
                if target is None:
                    continue
                if target == lock_path or target.startswith(lock_path + "."):
                    continue
                if not self._under_lock(module, node, method, lock_path):
                    yield self.finding(
                        module,
                        node,
                        f"`{target} {self._op(node)}= ...` outside "
                        f"`with {lock_path}:` in a lock-owning class "
                        f"({klass.name})",
                    )

    @staticmethod
    def _lock_decorated(method) -> bool:
        """True if any decorator's name mentions a lock (e.g.
        ``@_holding_store_lock``): the wrapper takes the lock for the body."""
        for deco in method.decorator_list:
            expr = deco.func if isinstance(deco, ast.Call) else deco
            name = dotted_name(expr) or ""
            if "lock" in name.rsplit(".", 1)[-1].lower():
                return True
        return False

    @staticmethod
    def _op(node: ast.AugAssign) -> str:
        return {"Add": "+", "Sub": "-"}.get(type(node.op).__name__, "?")

    def _effective_lock(
        self, klass: ast.ClassDef, classes: dict, depth: int = 0
    ) -> str | None:
        """The class's own declared lock, or one inherited from a base class
        defined in the same module (subclasses share the base's lock)."""
        own = self._declared_lock(klass)
        if own is not None or depth > 8:
            return own
        for base in klass.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                inherited = self._effective_lock(classes[base.id], classes, depth + 1)
                if inherited is not None:
                    return inherited
        return None

    @staticmethod
    def _declared_lock(klass: ast.ClassDef) -> str | None:
        for method in klass.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                for node in ast.walk(method):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.targets[0].value, ast.Name)
                        and node.targets[0].value.id == "self"
                        and "lock" in node.targets[0].attr.lower()
                        and isinstance(node.value, ast.Call)
                        and call_name(node.value) in _LOCK_CONSTRUCTORS
                    ):
                        return node.targets[0].attr
        return None

    @staticmethod
    def _self_counter_path(target: ast.AST) -> str | None:
        """`self.a`, `self.a.b`, `self.a[...]` as a display path, else None."""
        if isinstance(target, ast.Subscript):
            base = dotted_name(target.value)
            return f"{base}[...]" if base and base.startswith("self.") else None
        path = dotted_name(target)
        if path and path.startswith("self.") and path.count(".") <= 2:
            return path
        return None

    def _under_lock(self, module, node, method, lock_path: str) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if dotted_name(item.context_expr) == lock_path:
                        return True
            if ancestor is method:
                break
        return False
