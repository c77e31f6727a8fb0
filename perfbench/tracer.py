"""Outside-in tracing of the simulator, layer by layer.

The tracer replaces module and class attributes of ``cvqcsim`` with thin
wrappers, at the names callers look up (``protocol`` binds ``dec``, ``keygen``
and the table builders at import, so those are wrapped in ``protocol``; the
oracle query, the server hooks and ``Bits`` methods are class attributes).
No file of the program changes.

A *span* wrapper records name, start, end, parent span and session id into
flat arrays that stay in memory until ``write``.  A *count* wrapper only adds
to a counter.  A layer's self time is its spans' time minus the time their
child spans cover.
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import Counter
from time import perf_counter_ns

SERVER_HOOKS = (
    "setup_block",
    "receive_phase_table",
    "tweak_phases",
    "dephase_reveal",
    "tweak_reveal",
    "respond_std",
    "respond_combine",
    "respond_hadamard",
    "decode_outputs",
)


class Tracer:
    def __init__(self, cv):
        self.cv = cv  # namespace holding the imported cvqcsim modules
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.layer_of: dict[str, str] = {}
        self.server_names: set[str] = set()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_session = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.session_id = -1
        self.sessions: list[tuple[int, str, int]] = []  # (span index, round type, L)
        self.cache_entries: list[int] = []
        self.current_oracle = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------
    def _name_id(self, name: str, layer: str, server: bool) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of[name] = layer
            if server:
                self.server_names.add(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_session.append(self.session_id)
        self.span_end.append(0)
        self.stack.append(i)
        self.span_start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter_ns()
        self.stack.pop()

    def span(self, fn, name: str, layer: str, server: bool = False):
        nid = self._name_id(name, layer, server)
        opn, cls = self._open, self._close

        def wrapped(*args, **kwargs):
            i = opn(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                cls(i)

        return wrapped

    def count(self, fn, name: str):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _session(self, fn):
        nid = self._name_id("protocol.session", "protocol", False)
        opn, cls = self._open, self._close

        def wrapped(strategy, seed=None, **kwargs):
            self.session_id += 1
            i = opn(nid)
            try:
                out = fn(strategy, seed, **kwargs)
            finally:
                # drop the session's oracle inside its span, so that freeing
                # the memo is charged to the session
                if self.current_oracle is not None:
                    self.cache_entries.append(len(self.current_oracle.cache))
                    self.current_oracle = None
                cls(i)
            self.sessions.append((i, out.round_type, kwargs.get("L", 8)))
            return out

        return wrapped

    def _query(self, fn):
        nid = self._name_id("oracle.query", "oracle", False)
        opn, cls = self._open, self._close

        def wrapped(oracle, inp, out_len):
            self.current_oracle = oracle
            i = opn(nid)
            try:
                return fn(oracle, inp, out_len)
            finally:
                cls(i)

        return wrapped

    def _oracle_prf(self, fn):
        counts = self.counts

        def wrapped(seed, inp, out_len):
            counts["oracle.prf_misses"] += 1
            counts["oracle.prf_blocks"] += -(-out_len // 512)  # 512-bit blake2b blocks
            return fn(seed, inp, out_len)

        return wrapped

    def _table_build(self, fn, name: str):
        inner = self.span(fn, name, "tables")
        counts = self.counts

        def wrapped(*args, **kwargs):
            table = inner(*args, **kwargs)
            counts["tables.rows_kept"] += len(table.rows)
            return table

        return wrapped

    # -- install / remove ----------------------------------------------------
    def _set(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        cv = self.cv
        proto, adv, gad, tab, orc, ntcf, harness = (
            cv.protocol, cv.adversary, cv.gadget, cv.tables, cv.oracle, cv.ntcf, cv.harness
        )
        s = self.span
        self._set(harness, "estimate_rates", s(harness.estimate_rates, "harness.estimate_rates", "harness"))
        self._set(harness, "run_pre_rspv", self._session(harness.run_pre_rspv))
        self._set(proto, "run_pre_rspv", self._session(proto.run_pre_rspv))
        self._set(proto, "run_setup", s(proto.run_setup, "protocol.setup", "protocol"))
        self._set(proto, "run_add_phase", s(proto.run_add_phase, "protocol.add_phase", "protocol"))
        self._set(proto, "_fold", s(proto._fold, "protocol.fold", "protocol"))
        self._set(proto, "keygen", s(proto.keygen, "ntcf.keygen", "ntcf"))
        self._set(proto, "dec", s(proto.dec, "ntcf.dec", "ntcf"))
        # the client driver calls eval_claw, but it is the server's evaluation
        self._set(proto, "eval_claw", s(proto.eval_claw, "ntcf.eval_claw", "ntcf", server=True))
        self._set(ntcf, "_stream_bits", self.count(ntcf._stream_bits, "ntcf.prf_calls"))
        self._set(proto, "make_phase_table", self._table_build(proto.make_phase_table, "tables.build_phase"))
        self._set(proto, "make_combine_table", self._table_build(proto.make_combine_table, "tables.build_combine"))
        self._set(proto, "table_payload", s(proto.table_payload, "tables.payload", "tables"))
        self._set(tab, "encrypt", self.count(tab.encrypt, "tables.encrypt_calls"))
        for mod in (gad, adv):
            self._set(mod, "decrypt_row", s(mod.decrypt_row, "tables.decrypt_row", "tables"))
        self._set(orc.RandomOracle, "query", self._query(orc.RandomOracle.query))
        self._set(orc, "_stream_bits", self._oracle_prf(orc._stream_bits))
        self._set(gad, "combine_step", s(gad.combine_step, "gadget.combine_step", "gadget"))
        for attr in (
            "make_gadget", "decrypt_branch_phases", "rotate_branches", "dephase",
            "std_sample", "hadamard_sample", "decode_output",
        ):
            self._set(adv, attr, s(getattr(adv, attr), f"gadget.{attr}", "gadget"))
        self._set(proto, "fidelity_ideal", s(proto.fidelity_ideal, "gadget.fidelity_ideal", "gadget"))
        classes = [adv.ServerSession]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            for hook in SERVER_HOOKS:
                if hook in cls.__dict__:
                    self._set(cls, hook, s(cls.__dict__[hook], f"adversary.{hook}", "adversary", server=True))
        Bits = cv.bits.Bits
        self._set(Bits, "token", self.count(Bits.token, "bits.token_calls"))
        self._set(Bits, "concat", self.count(Bits.concat, "bits.concat_calls"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def span_counts(self) -> Counter:
        c = Counter(self.span_name)
        return Counter({self.names[k]: v for k, v in c.items()})

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, normalised per session."""
        n = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        is_server = [self.names[k] in self.server_names for k in range(len(self.names))]
        # top-level server spans: a server span with no server span above it
        under_server = bytearray(n)
        server_ns_by_session: Counter = Counter()
        layer_self: Counter = Counter()
        name_total: Counter = Counter()
        names, span_name, session = self.names, self.span_name, self.span_session
        for i in range(n):
            p = parent[i]
            srv = is_server[span_name[i]]
            if p >= 0 and (under_server[p] or is_server[span_name[p]]):
                under_server[i] = 1
            elif srv:
                server_ns_by_session[session[i]] += dur[i]
            name = names[span_name[i]]
            layer_self[self.layer_of[name]] += dur[i] - child[i]
            name_total[name] += dur[i]

        calls = self.span_counts()
        S = max(1, len(self.sessions))
        ms = 1e-6 / S
        m: dict[str, float] = {}
        m["protocol.setup_ms"] = name_total["protocol.setup"] * ms
        m["protocol.add_phase_ms"] = name_total["protocol.add_phase"] * ms
        m["protocol.fold_ms"] = name_total["protocol.fold"] * ms
        per_type: dict[str, list[int]] = {t: [] for t in self.cv.protocol.ROUND_TYPES}
        client_ns = 0
        client_us_per_gadget = 0.0
        for i, round_type, L in self.sessions:
            per_type[round_type].append(dur[i])
            c = dur[i] - server_ns_by_session[session[i]]
            client_ns += c
            client_us_per_gadget += c / 1e3 / L
        for t, durs in per_type.items():
            m[f"protocol.round.{t.replace(':', '-')}_ms"] = (sum(durs) / len(durs) / 1e6) if durs else 0.0
        m["protocol.client_ms"] = client_ns * ms
        m["protocol.client_us_per_gadget"] = client_us_per_gadget / S
        m["adversary.server_ms"] = sum(server_ns_by_session.values()) * ms
        m["adversary.hook_calls"] = sum(v for k, v in calls.items() if k.startswith("adversary.")) / S
        m["ntcf.keygen_calls"] = calls["ntcf.keygen"] / S
        m["ntcf.eval_calls"] = calls["ntcf.eval_claw"] / S
        m["ntcf.dec_calls"] = calls["ntcf.dec"] / S
        m["ntcf.prf_calls"] = self.counts["ntcf.prf_calls"] / S
        m["ntcf.self_ms"] = layer_self["ntcf"] * ms
        built = calls["tables.build_phase"] + calls["tables.build_combine"]
        m["tables.built"] = built / S
        m["tables.encrypt_calls"] = self.counts["tables.encrypt_calls"] / S
        m["tables.decrypt_row_calls"] = calls["tables.decrypt_row"] / S
        m["tables.build_yield"] = self.counts["tables.rows_kept"] / max(1, self.counts["tables.encrypt_calls"])
        m["tables.payload_calls"] = calls["tables.payload"] / S
        m["tables.build_ms"] = (name_total["tables.build_phase"] + name_total["tables.build_combine"]) * ms
        m["tables.decrypt_ms"] = name_total["tables.decrypt_row"] * ms
        queries = calls["oracle.query"]
        m["oracle.queries"] = queries / S
        m["oracle.cache_hit_ratio"] = 1 - self.counts["oracle.prf_misses"] / max(1, queries)
        m["oracle.prf_blocks"] = self.counts["oracle.prf_blocks"] / S
        m["oracle.cache_entries"] = sum(self.cache_entries) / max(1, len(self.cache_entries))
        m["oracle.self_ms"] = layer_self["oracle"] * ms
        m["gadget.combine_calls"] = calls["gadget.combine_step"] / S
        m["gadget.hadamard_calls"] = calls["gadget.hadamard_sample"] / S
        m["gadget.std_calls"] = calls["gadget.std_sample"] / S
        m["gadget.self_ms"] = layer_self["gadget"] * ms
        m["bits.token_calls"] = self.counts["bits.token_calls"] / S
        m["bits.concat_calls"] = self.counts["bits.concat_calls"] / S
        m["harness.self_ms"] = layer_self["harness"] * ms
        return m

    def gadget_counts(self) -> dict[str, float]:
        """Work counts per output gadget, for the linearity check."""
        gadgets = max(1, sum(L for _, _, L in self.sessions))
        calls = self.span_counts()
        return {
            "oracle_queries": calls["oracle.query"] / gadgets,
            "oracle_prf_blocks": self.counts["oracle.prf_blocks"] / gadgets,
            "tables_built": (calls["tables.build_phase"] + calls["tables.build_combine"]) / gadgets,
            "ntcf_prf_calls": self.counts["ntcf.prf_calls"] / gadgets,
        }

    def write(self, path: str) -> None:
        """Spans as gzip'd TSV: id, parent, session, name, start_ns, end_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tsession\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i, (p, s, k, t0, t1) in enumerate(
                zip(self.span_parent, self.span_session, self.span_name, self.span_start, self.span_end)
            ):
                f.write(f"{i}\t{p}\t{s}\t{names[k]}\t{t0}\t{t1}\n")
