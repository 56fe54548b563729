"""Per-layer tracer for orbitlab, applied from outside the package.

`Tracer.install()` replaces orbitlab's public functions and methods with
counting wrappers at every place they are bound: the defining module, every
orbitlab module that imported the name with `from .x import name`, the
package namespace, the class (for methods) and the check registry (for the
check runners).  `uninstall()` puts every original object back.

Every wrapped function keeps a call count and its self time (time inside it
minus time inside wrapped functions it called).  Coarse entry points
(`SPAN_NAMES` and every `*_report`) additionally record one span each, with
their parent span, kept in memory until the caller writes them out.
Generator functions only count calls and yielded items; the time spent in
their bodies is charged to the frame that consumes them.

Only the traced benchmark run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

from orbitlab.verify import UndeterminedError

# Dependency order of the package's modules, also the order of the layers.
LAYERS = ("groups", "words", "spaces", "verify", "actions", "cocycles",
          "constructions", "cli")

SPAN_NAMES = frozenset({
    "cli.run_suite", "cocycles.verify_identity", "cocycles.verify_inverse_pair",
    "verify.independence_exact", "verify.independence_mc",
    "spaces.exact_distribution", "actions.check_coinduced_characterization",
    "constructions.increment_grouped_reports", "verify.generation_check",
    "verify.selector_independence_exact", "verify.goodness_of_fit_mc",
    "verify.homogeneity_mc",
})

MATCHER_LOOKUPS = frozenset({"constructions.Matcher.forward_offset",
                             "constructions.Matcher.backward_offset"})

# Dunder methods worth wrapping; the others (hash, eq, init) run inside
# every dict lookup and would only measure the wrapper.
DUNDERS = frozenset({"__mul__", "__pow__"})


def _is_span(key: str) -> bool:
    return (key in SPAN_NAMES or key.endswith("_report")
            or key.startswith("cli._run_"))


class Tracer:
    """Counts, self times and spans for one traced run of the package."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [calls, self_s, outer_s, depth]
        self.items: dict[str, int] = {}    # generator key -> items yielded
        self.extra: dict[str, float] = {}  # observed quantities (scan lengths, ...)
        self.spans: list[tuple] = []       # (id, parent, name, start, end)
        self._frames: list[list] = []      # [child seconds] per active wrapped call
        self._span_stack: list[int] = []
        self._next_span = 0
        self.patched: list[tuple] = []     # (owner, attribute, original)
        self.installed = False

    # -- wrappers -------------------------------------------------------------

    def _stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def _leaf(self, key, fn, after=None):
        stat = self._stat(key)
        frames = self._frames
        clock = time.perf_counter

        if after is None:  # the hot leaves: keep the wrapper lean
            @functools.wraps(fn)
            def lean(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    stat[0] += 1
                    stat[1] += dt - frame[0]
                    if frames:
                        frames[-1][0] += dt
            return lean

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                frames.pop()
                stat[0] += 1
                stat[1] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if after is not None:
                    after(args, kwargs, result, exc)
        return wrapper

    def _span(self, key, fn, after=None):
        stat = self._stat(key)
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_span
            self._next_span += 1
            parent = span_stack[-1] if span_stack else None
            span_stack.append(sid)
            frame = [0.0]
            frames.append(frame)
            stat[3] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                span_stack.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[1] += dt - frame[0]
                if stat[3] == 0:
                    stat[2] += dt
                if frames:
                    frames[-1][0] += dt
                spans.append((sid, parent, key, t0, t1))
                if after is not None:
                    after(args, kwargs, result, exc)
        return wrapper

    def _generator(self, key, fn):
        stat = self._stat(key)
        items = self.items
        items.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            for item in fn(*args, **kwargs):
                items[key] += 1
                yield item
        return wrapper

    # -- observers for the derived per-layer figures -----------------------------

    def _add(self, name: str, amount: float = 1):
        self.extra[name] = self.extra.get(name, 0) + amount

    def _observe_match(self, args, kwargs, result, exc):
        radius = args[2] if len(args) > 2 else kwargs["max_radius"]
        if exc is not None:
            if isinstance(exc, UndeterminedError):
                self._add("parenthesis_match.unresolved")
                self._add("parenthesis_match.scan_len", radius)
            return
        self._add("parenthesis_match.scan_len", abs(result))

    def _count_lookups(self, fn):
        """Matcher lookups, and hits: lookups that made no parenthesis scan."""
        scans = self._stat("constructions.parenthesis_match")

        @functools.wraps(fn)
        def lookup(matcher, z, symbol):
            if symbol == 0:
                return fn(matcher, z, symbol)
            before = scans[0]
            try:
                return fn(matcher, z, symbol)
            finally:
                self._add("matcher.lookups")
                if scans[0] == before:
                    self._add("matcher.hits")
        return lookup

    def _observe_identities(self, args, kwargs, result, exc):
        if result is not None:
            self._add("cocycles.identities_checked", result.statistics.get("checked", 0))
            self._add("cocycles.undetermined", result.statistics.get("undetermined", 0))

    def _observe_distribution(self, args, kwargs, result, exc):
        if result is not None:
            self._add("exact_distribution.states", result.state_count)

    def _observe_family(self, args, kwargs, result, exc):
        # The increment variables are closures built per call: wrap each one.
        if result is not None:
            for variable in result:
                variable.fn = self._leaf("constructions.increment_variable", variable.fn)

    # -- install / uninstall ------------------------------------------------------

    def _wrapper_for(self, key: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator(key, fn)
        after = {
            "constructions.parenthesis_match": self._observe_match,
            "cocycles.verify_identity": self._observe_identities,
            "cocycles.verify_inverse_pair": self._observe_identities,
            "spaces.exact_distribution": self._observe_distribution,
            "constructions.increment_family": self._observe_family,
        }.get(key)
        if _is_span(key):
            return self._span(key, fn, after)
        if key in MATCHER_LOOKUPS:
            return self._count_lookups(self._leaf(key, fn))
        return self._leaf(key, fn, after)

    def _patch(self, owner, attribute: str, original, replacement):
        self.patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def targets(self):
        """(key, owner, attribute, function) for every function to wrap."""
        out = []
        for layer in LAYERS:
            module = importlib.import_module(f"orbitlab.{layer}")
            for name, obj in sorted(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and (not name.startswith("_")
                                                or name.startswith("_run_")):
                    out.append((f"{layer}.{name}", module, name, obj))
                elif inspect.isclass(obj):
                    for attr, member in sorted(vars(obj).items()):
                        if inspect.isfunction(member) and (
                                not attr.startswith("_") or attr in DUNDERS):
                            out.append((f"{layer}.{name}.{attr}", obj, attr, member))
        return out

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        import orbitlab
        from orbitlab import cli
        targets = self.targets()
        wrappers = {id(fn): self._wrapper_for(key, fn) for key, _, _, fn in targets}
        originals = {}
        for key, owner, attribute, fn in targets:
            originals[id(fn)] = fn
            if inspect.isclass(owner):
                self._patch(owner, attribute, fn, wrappers[id(fn)])
        # module-level functions: every namespace that bound the same object
        namespaces = [orbitlab] + [importlib.import_module(f"orbitlab.{layer}")
                                   for layer in LAYERS]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if originals.get(id(obj)) is obj:
                    self._patch(namespace, name, obj, wrappers[id(obj)])
        for spec in cli.REGISTRY.values():
            if originals.get(id(spec.runner)) is spec.runner:
                self._patch(spec, "runner", spec.runner, wrappers[id(spec.runner)])
        self.installed = True
        return self

    def uninstall(self):
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.installed = False

    def restored(self) -> bool:
        """True when every name the tracer replaced holds its original again."""
        return not self.installed and all(
            getattr(owner, attribute) is original
            for owner, attribute, original in self.patched)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "functions": {key: {"calls": s[0], "self_s": s[1], "outer_s": s[2]}
                          for key, s in sorted(self.stats.items())},
            "items": dict(sorted(self.items.items())),
            "extra": dict(sorted(self.extra.items())),
            "spans": len(self.spans),
        }

    def span_records(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in sorted(self.spans)]
