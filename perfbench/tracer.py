"""Outside-in tracing of the program's layers, installed from the benchmark.

Nothing in the program changes. Tracer.install replaces functions with
wrappers at every name they are reached through: the defining module's
attribute and the names other modules imported (services.big_step_traced,
protocol.print_expr, ...). Wrappers of the coarse calls record spans (name,
start, end, parent, request id) in memory; wrappers of the calls made once per
engine transition only count. A Budget subclass installed as protocol.Budget
counts transitions and, through a counting check_cache, check-memo hits.

Recursive calls of a wrapped function (print_expr, nested checks) are passed
straight through, so each span covers one outermost call.
"""

import json
import time
from array import array

# (module, attribute, span name) for the timed calls
TIMED = (
    ("protocol", "handle_request", "protocol.handle_request"),
    ("protocol", "deserialize_state", "protocol.deserialize_state"),
    ("protocol", "_replay_remaining", "protocol.replay"),
    ("protocol", "serialize_state", "protocol.serialize_state"),
    ("protocol", "parse_term", "protocol.parse_term"),
    ("services", "generate", "services.generate"),
    ("services", "ready", "services.ready"),
    ("services", "stepsremaining", "services.stepsremaining"),
    ("services", "allfirsts", "services.allfirsts"),
    ("services", "onefirst", "services.onefirst"),
    ("services", "derivation", "services.derivation"),
    ("services", "diagnose", "services.diagnose"),
    ("services", "applicable", "services.applicable"),
    ("services", "apply", "services.apply"),
    ("services", "adopt_step", "services.adopt_step"),
    ("strategy", "big_step_traced", "strategy.big_step"),
    ("strategy", "minor_sentences", "strategy.minor_sentences"),
    ("powers", "parse", "powers.parse"),
    ("powers", "print_expr", "powers.print_expr"),
    ("powers", "generate_power", "exercise.generate"),
    ("lint", "lint_strategy", "lint.lint_strategy"),
)

SERVICES = tuple(name.split(".")[1] for _, _, name in TIMED if name.startswith("services."))
LAYERS = ("protocol", "services", "strategy", "powers", "lint", "exercise")

# modules searched for imported copies of the wrapped functions
MODULES = ("protocol", "services", "strategy", "powers", "exercise", "lint", "navigation")


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in TIMED]
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_time = [0.0] * n
        self.layer_outer = dict.fromkeys(LAYERS, 0.0)
        self._active = [0] * n
        self._layer_active = dict.fromkeys(LAYERS, 0)
        self._stack = []
        # stored spans, one entry per column
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.request_id = -1
        self.counts = dict.fromkeys(("step", "split", "split_hit", "check_eval", "zipper_move",
                                     "norm", "replay_big_step", "replay_trace_len",
                                     "ticks", "check_ticks", "memo_lookup", "memo_hit"), 0)
        self._check_depth = 0
        self._patches = []
        self._split_cache = None

    # -- wrappers ----------------------------------------------------------

    def _timed(self, nid, fn):
        name = self.names[nid]
        layer = name.split(".")[0]
        active, layer_active, stack = self._active, self._layer_active, self._stack
        calls, incl, self_time, outer = self.calls, self.incl, self.self_time, self.layer_outer
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_request = self.span_parent, self.span_request
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            active[nid] = 1
            outermost = not layer_active[layer]
            layer_active[layer] += 1
            index = len(s_start)
            frame = [0.0, index]
            s_name.append(nid)
            s_parent.append(stack[-1][1] if stack else -1)
            s_request.append(self.request_id)
            s_end.append(0.0)
            stack.append(frame)
            start = clock()
            s_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                s_end[index] = end
                duration = end - start
                active[nid] = 0
                layer_active[layer] -= 1
                calls[nid] += 1
                incl[nid] += duration
                self_time[nid] += duration - frame[0]
                if outermost:
                    outer[layer] += duration
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, modules, original, wrapper):
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the program's functions; build registries only afterwards,
        because an Exercise keeps the generator it was built with."""
        import importlib

        modules = {m: importlib.import_module("strategem." + m) for m in MODULES}
        strategy, protocol, navigation = modules["strategy"], modules["protocol"], modules["navigation"]
        counts = self.counts
        self._split_cache = strategy._split_cache

        for nid, (module, attr, _) in enumerate(TIMED):
            original = getattr(modules[module], attr)
            self._patch_everywhere(modules, original, self._timed(nid, original))

        replay = protocol._replay_remaining

        def replay_wrapper(strategy_, start_term, trace, *rest):
            counts["replay_trace_len"] += len(trace)
            return replay(strategy_, start_term, trace, *rest)

        self._patch(protocol, "_replay_remaining", replay_wrapper)
        # only the replay reaches big_step through this name
        self._patch(protocol, "big_step", self._counted("replay_big_step", protocol.big_step))
        self._patch_everywhere(modules, strategy.step, self._counted("step", strategy.step))
        self._patch_everywhere(modules, modules["powers"].norm_power,
                               self._counted("norm", modules["powers"].norm_power))
        for method in ("up", "down", "_sibling"):
            self._patch(navigation.Zipper, method,
                        self._counted("zipper_move", getattr(navigation.Zipper, method)))

        split, cache = strategy.split, strategy._split_cache

        def split_wrapper(s):
            counts["split"] += 1
            if s in cache:
                counts["split_hit"] += 1
            return split(s)

        self._patch_everywhere(modules, split, split_wrapper)

        has_end_state = strategy._has_end_state
        tracer = self

        def check_wrapper(state, budget):
            counts["check_eval"] += 1
            tracer._check_depth += 1
            try:
                return has_end_state(state, budget)
            finally:
                tracer._check_depth -= 1

        self._patch(strategy, "_has_end_state", check_wrapper)
        self._patch(protocol, "Budget", _recording_budget(self, strategy.Budget))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def _incl(self, name):
        return self.incl[self.names.index(name)]

    def _calls(self, name):
        return self.calls[self.names.index(name)]

    def metrics(self):
        """Per-layer figures over everything traced so far."""
        c = self.counts
        requests = max(self._calls("protocol.handle_request"), 1)
        request_time = self._incl("protocol.handle_request") or 1.0
        replays = self._calls("protocol.deserialize_state")
        out = {
            "protocol.replay_s": (self._incl("protocol.replay"), "s"),
            "protocol.replay_share": (self._incl("protocol.replay") / request_time, "ratio"),
            "protocol.replay_big_steps": (c["replay_big_step"], "count"),
            "protocol.replay_trace_len": (c["replay_trace_len"] / replays if replays else 0.0, "count"),
            "protocol.serialize_s": (self._incl("protocol.serialize_state"), "s"),
            "protocol.parse_term_s": (self._incl("protocol.parse_term"), "s"),
        }
        for service in SERVICES:
            out["services.self_s." + service] = (self.self_time[self.names.index("services." + service)], "s")
        out.update({
            "services.allfirsts_calls_per_request": (self._calls("services.allfirsts") / requests, "count"),
            "services.derivation_calls_per_request": (self._calls("services.derivation") / requests, "count"),
            "strategy.transitions_per_request": (c["ticks"] / requests, "count"),
            "strategy.check_evals": (c["check_eval"], "count"),
            "strategy.check_transitions_share": (c["check_ticks"] / c["ticks"] if c["ticks"] else 0.0, "ratio"),
            "strategy.check_memo_hit_ratio": (c["memo_hit"] / c["memo_lookup"] if c["memo_lookup"] else 0.0, "ratio"),
            "strategy.step_calls": (c["step"], "count"),
            "strategy.big_step_s": (self._incl("strategy.big_step"), "s"),
            "strategy.minor_sentences_s": (self._incl("strategy.minor_sentences"), "s"),
            "strategy.split_calls": (c["split"], "count"),
            "strategy.split_cache_hit_ratio": (c["split_hit"] / c["split"] if c["split"] else 0.0, "ratio"),
            "strategy.split_cache_entries": (len(self._split_cache), "count"),
            "navigation.zipper_moves": (c["zipper_move"], "count"),
            "powers.parse_s": (self._incl("powers.parse"), "s"),
            "powers.print_s": (self._incl("powers.print_expr"), "s"),
            "powers.norm_calls": (c["norm"], "count"),
            "lint.lint_s": (self._incl("lint.lint_strategy"), "s"),
            "exercise.generate_s": (self._incl("exercise.generate"), "s"),
        })
        return out

    def layer_shares(self):
        """Each layer's self time over request time. Navigation and check
        evaluation are counted, not timed, so their time is the strategy
        layer's."""
        request_time = self._incl("protocol.handle_request") or 1.0
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in zip(self.names, self.self_time):
            out[name.split(".")[0]] += seconds / request_time
        return out

    def phases(self):
        """Shares of request time taken by the replay, by the service calls
        protocol makes, and by serialization; the rest is protocol's own."""
        request_time = self._incl("protocol.handle_request") or 1.0
        replay = self._incl("protocol.replay")
        services = self.layer_outer["services"]
        serialize = self._incl("protocol.serialize_state")
        return {"replay": replay / request_time, "services": services / request_time,
                "serialize": serialize / request_time,
                "other": 1.0 - (replay + services + serialize) / request_time}

    def write_spans(self, path):
        """One JSON object per span: name, start and end in seconds from the
        first span, parent span index (-1 for none) and request id."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as out:
            for i in range(len(self.span_start)):
                out.write(json.dumps({
                    "i": i, "name": self.names[self.span_name[i]],
                    "start": round(self.span_start[i] - origin, 9),
                    "end": round(self.span_end[i] - origin, 9),
                    "parent": self.span_parent[i], "request": self.span_request[i],
                }, separators=(",", ":")) + "\n")
        return len(self.span_start)


class _CountingCache(dict):
    """check_cache that counts lookups and memoised outcomes found."""

    __slots__ = ("counts",)

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        self.counts["memo_lookup"] += 1
        if value is True or value is False:
            self.counts["memo_hit"] += 1
        return value


def _recording_budget(tracer, base):
    counts = tracer.counts

    class RecordingBudget(base):
        __slots__ = ()

        def __init__(self, limit=None):
            base.__init__(self, limit)
            cache = _CountingCache()
            cache.counts = counts
            self.check_cache = cache

        def tick(self, n=1):
            counts["ticks"] += n
            if tracer._check_depth:
                counts["check_ticks"] += n
            base.tick(self, n)

    return RecordingBudget
