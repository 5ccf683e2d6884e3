"""Data-centric produce/consume code generation (Typer, §2).

``CodeGen`` walks the shared physical plan depth-first: ``gen`` is
*produce* (called on first visit), the ``consume`` callbacks are invoked
once the child pipeline reaches a tuple — exactly the paper's model. All
non-blocking operators of a pipeline fuse into one tuple-at-a-time
Python loop; hashing and probing are inlined into the loop body
(Figure 2a); pipeline breakers (hash-table build, group-by) cut the plan
into successive loops.

Cost accounting is structural: the generator splits each fused loop into
*regions* (segments behind selective branches), assigns every region its
static instruction weight from ``costs``, and emits a cheap counter
increment per region. After execution, the engine converts observed
region counts + hash-table sizes into cost-model charges — so the model
sees exactly the loop structure the paradigm produces.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..common import costs
from ..common import plan as PL
from ..common.expr import Col
from ..common.hashtable import _MASK64, _M, _PHI

_HASH_INLINE = {
    # scalar code template for hash of variable {v}; must match hashtable.py
    "crc": "((({v} * %d) & %d) ^ ((({v} * %d) & %d) >> 29))" % (_PHI, _MASK64, _PHI, _MASK64),
    "murmur": None,  # murmur needs a temp; Typer uses CRC per the paper
}
_HASH_WEIGHT = {"crc": costs.HASH_CRC, "murmur": costs.HASH_MURMUR}


@dataclass
class Region:
    """A straight-line segment of a fused loop with one execution count."""

    key: str
    loop_id: int
    parent: str | None       # preceding region (for branch selectivity)
    branch: bool = False     # entered through a data-dependent branch
    instr: float = 0.0       # static instructions per execution
    seq_bytes: float = 0.0   # sequential base-column bytes per execution
    rand: list = field(default_factory=list)  # ('bucket'|'entry', ht) | ('group', gid)


class _Env(dict):
    """Column -> local-variable mapping with lazy load emission."""

    def __init__(self, cg: "CodeGen", arrays: dict, loop_var: str):
        super().__init__()
        self.cg = cg
        self.arrays = arrays      # column -> prepared list variable
        self.loop_var = loop_var

    def __missing__(self, col):
        var = f"v_{col}_{self.cg.uid()}"
        self.cg.emit(f"{var} = {self.arrays[col]}[{self.loop_var}]")
        self.cg.cur.instr += costs.LOAD
        self.cg.cur.seq_bytes += 8.0
        self[col] = var
        return var


class CodeGen:
    def __init__(self, hash_fn: str = "crc"):
        self.hash_fn = hash_fn
        self.body: list[str] = []
        self.depth = 1
        self.regions: list[Region] = []
        self.objects: dict = {}   # names injected into the exec namespace
        self.gb_meta: dict[int, tuple] = {}  # gid -> (n_keys, n_aggs)
        self._uid = 0
        self._loop = 0
        self.cur: Region | None = None
        self.root_result_var: str | None = None

    # -- emission helpers ---------------------------------------------------

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def emit(self, line: str) -> None:
        self.body.append("    " * self.depth + line)

    def new_loop(self) -> int:
        self._loop += 1
        return self._loop

    def new_region(self, loop_id: int, branch: bool) -> Region:
        parent = self.cur.key if self.cur else None
        r = Region(f"r{len(self.regions)}", loop_id, parent, branch)
        self.regions.append(r)
        self.cur = r
        self.emit(f"_c_{r.key} += 1")
        return r

    def hash_code(self, var: str) -> str:
        return _HASH_INLINE[self.hash_fn].format(v=var)

    # -- produce/consume ----------------------------------------------------

    def gen(self, node, consume) -> None:
        """produce(node); ``consume(env)`` emits the parent's per-tuple code."""
        if isinstance(node, PL.Scan):
            u = self.uid()
            self.emit(f"_t{u} = tables[{node.table!r}]")
            arrays = {}
            for c in node.cols:
                arrays[c] = f"_a{u}_{c}"
                self.emit(f"{arrays[c]} = _t{u}.columns[{c!r}].tolist()")
            self.emit(f"_n{u} = _t{u}.n")
            loop = self.new_loop()
            self.emit(f"for _i{u} in range(_n{u}):")
            self.depth += 1
            saved = self.cur
            self.cur = None
            r = self.new_region(loop, branch=False)
            r.instr += costs.LOOP
            env = _Env(self, arrays, f"_i{u}")
            consume(env)
            self.depth -= 1
            self.cur = saved
            return

        if isinstance(node, PL.Select):
            # Predicated (§6.2 footnote): all conjuncts computed branch-
            # free for every tuple, one final branch. Default: one
            # (mispredictable) branch per conjunct, short-circuiting.
            # The emitted Python may short-circuit either way; the cost
            # spec charges the chosen form.
            def c2(env, node=node, consume=consume):
                loop = self.cur.loop_id
                if node.predicated:
                    conds = []
                    for conj in node.conjuncts:
                        conds.append(conj.scalar_code(env))
                        self.cur.instr += conj.weight()
                    self.cur.instr += costs.BRANCH
                    self.emit(f"if not ({' and '.join(conds)}): continue")
                    self.new_region(loop, branch=True)
                else:
                    from ..common.expr import And

                    flat = []
                    for conj in node.conjuncts:
                        flat.extend(conj.parts if isinstance(conj, And) else (conj,))
                    for conj in flat:
                        cond = conj.scalar_code(env)
                        self.cur.instr += conj.weight() + costs.BRANCH
                        self.emit(f"if not {cond}: continue")
                        self.new_region(loop, branch=True)
                consume(env)

            self.gen(node.child, c2)
            return

        if isinstance(node, PL.Project):
            def c2(env, node=node, consume=consume):
                out_env = dict()
                for name, e in node.outputs:
                    if isinstance(e, Col):
                        out_env[name] = env[e.name]
                    else:
                        code = e.scalar_code(env)
                        var = f"v_{name}_{self.uid()}"
                        self.cur.instr += e.weight()
                        self.emit(f"{var} = {code}")
                        out_env[name] = var
                env2 = _Env(self, {}, "")
                env2.update(out_env)
                consume(env2)

            self.gen(node.child, c2)
            return

        if isinstance(node, PL.HashJoin):
            self.gen_join(node, consume)
            return

        if isinstance(node, PL.HashGroupBy):
            gid = self.gen_groupby_pipeline(node)
            # non-root group-by: rescan the materialized result
            u = self.uid()
            arrays = {}
            for c in node.out_cols():
                arrays[c] = f"_ga{u}_{c}"
                self.emit(f"{arrays[c]} = _gres_{gid}[{c!r}].tolist()")
            loop = self.new_loop()
            self.emit(f"for _i{u} in range(len(_gres_{gid})):")
            self.depth += 1
            saved = self.cur
            self.cur = None
            r = self.new_region(loop, branch=False)
            r.instr += costs.LOOP
            env = _Env(self, arrays, f"_i{u}")
            consume(env)
            self.depth -= 1
            self.cur = saved
            return

        raise TypeError(type(node))

    def gen_join(self, node: PL.HashJoin, consume) -> None:
        ht = f"ht_{node.name}"
        hw = _HASH_WEIGHT[self.hash_fn]
        # ---- build pipeline (skipped when a broadcast table is injected)
        self.emit(f"if {node.name!r} in prebuilt:")
        self.emit(f"    {ht} = prebuilt[{node.name!r}]")
        self.emit("else:")
        self.depth += 1
        self.emit(
            f"{ht} = rt.make_ht({len(node.build_keys)}, "
            f"{list(node.payload)!r}, {self.hash_fn!r})"
        )

        def build_consume(env, node=node):
            keys = ", ".join(env[k] for k in node.build_keys) + ","
            pays = ", ".join(env[p] for p in node.payload)
            pays = pays + "," if pays else ""
            self.cur.instr += (
                hw * len(node.build_keys)
                + costs.HASH_COMBINE * (len(node.build_keys) - 1)
                + costs.HT_INSERT
                + costs.LOAD * len(node.payload)
            )
            self.cur.rand.append(("bucket", node.name))
            self.emit(f"{ht}.insert_scalar(({keys}), ({pays}))")

        self.gen(node.build, build_consume)
        self.emit(f"{ht}.freeze()")
        self.depth -= 1
        self.emit(f"hts[{node.name!r}] = {ht}")
        # scalar-path locals for the probe loop
        u = self.uid()
        self.emit(f"_m{u} = {ht}.mask")
        self.emit(f"_tg{u} = {ht}.tags_l")
        self.emit(f"_hd{u} = {ht}.head_l")
        self.emit(f"_nx{u} = {ht}.next_l")
        for j in range(len(node.build_keys)):
            self.emit(f"_k{u}_{j} = {ht}.keys_l[{j}]")
        for p in node.payload:
            self.emit(f"_p{u}_{p} = {ht}.payloads_l[{p!r}]")

        # ---- probe pipeline: hash, tag check, chain walk, fused consumer
        def probe_consume(env, node=node, u=u):
            loop = self.cur.loop_id
            hvars = []
            for k in node.probe_keys:
                v = env[k]
                hv = f"_h{self.uid()}"
                self.emit(f"{hv} = {self.hash_code(v)}")
                self.cur.instr += hw
                hvars.append(hv)
            h = hvars[0]
            for hv in hvars[1:]:
                nh = f"_h{self.uid()}"
                self.emit(f"{nh} = (({h} * 3) + {hv}) & {_MASK64}")
                self.cur.instr += costs.HASH_COMBINE
                h = nh
            self.cur.instr += costs.HT_BUCKET + costs.BRANCH
            self.cur.rand.append(("bucket", node.name))
            self.emit(f"_b{u} = {h} & _m{u}")
            self.emit(f"if _tg{u}[_b{u}] & (1 << (({h} >> 56) & 15)):")
            self.depth += 1
            self.new_region(loop, branch=True)
            self.emit(f"_e{u} = _hd{u}[_b{u}]")
            self.emit(f"while _e{u} >= 0:")
            self.depth += 1
            cmp_r = self.new_region(loop, branch=False)
            cmp_r.instr += (
                costs.LOOP
                + costs.CMP * len(node.probe_keys)
                + costs.HT_ADVANCE
                + costs.BRANCH
            )
            cmp_r.rand.append(("entry", node.name))
            cond = " and ".join(
                f"_k{u}_{j}[_e{u}] == {env[k]}"
                for j, k in enumerate(node.probe_keys)
            )
            self.emit(f"if {cond}:")
            self.depth += 1
            m_r = self.new_region(loop, branch=True)
            for p in node.payload:
                var = f"v_{p}_{self.uid()}"
                self.emit(f"{var} = _p{u}_{p}[_e{u}]")
                m_r.instr += costs.LOAD
                env[p] = var
            consume(env)
            self.depth -= 1
            self.emit(f"_e{u} = _nx{u}[_e{u}]")
            self.depth -= 2
            self.cur = cmp_r  # anything after us in this loop counts here

        self.gen(node.probe, probe_consume)

    def gen_groupby_pipeline(self, node: PL.HashGroupBy, partial: bool = False) -> int:
        """Emit the pipeline that fills + finalizes one group-by. Returns
        the group-by id whose ``_gres_{gid}`` frame holds the result;
        ``partial`` makes it emit mergeable partial aggregates."""
        gid = self.uid()
        self.gb_meta[gid] = (len(node.keys), len(node.aggs))
        self.objects[f"_AGGS_{gid}"] = list(node.aggs)
        self.objects[f"_KEYS_{gid}"] = list(node.keys)
        for k in node.keys:
            self.emit(f"_gk{gid}_{k} = []")
        inputs = [a for a in node.aggs if a.fn != "count"]
        for a in inputs:
            self.emit(f"_gi{gid}_{a.out} = []")

        def gb_consume(env, node=node):
            hw = _HASH_WEIGHT[self.hash_fn]
            self.cur.instr += (
                hw * max(len(node.keys), 0)
                + costs.HASH_COMBINE * max(len(node.keys) - 1, 0)
                + (costs.HT_BUCKET + costs.CMP if node.keys else 0)
                + costs.AGG_UPDATE * len(node.aggs)
            )
            if node.keys:
                self.cur.rand.append(("group", gid))
            for k in node.keys:
                self.emit(f"_gk{gid}_{k}.append({env[k]})")
                self.cur.instr += costs.STORE
            for a in inputs:
                code = a.expr.scalar_code(env)
                self.cur.instr += a.expr.weight()
                self.emit(f"_gi{gid}_{a.out}.append({code})")

        self.gen(node.child, gb_consume)
        klists = ", ".join(f"{k!r}: _gk{gid}_{k}" for k in node.keys)
        ilists = ", ".join(f"{a.out!r}: _gi{gid}_{a.out}" for a in inputs)
        self.emit(
            f"_gres_{gid} = rt.finalize_groupby({{{klists}}}, {{{ilists}}}, "
            f"_AGGS_{gid}, _KEYS_{gid}, partial={partial})"
        )
        self.emit(f"C['groups_{gid}'] = len(_gres_{gid})")
        return gid

    # -- top level ----------------------------------------------------------

    def gen_query(self, plan, partial: bool) -> None:
        if isinstance(plan, PL.HashGroupBy):
            gid = self.gen_groupby_pipeline(plan, partial)
            self.root_result_var = f"_gres_{gid}"
        else:
            out_cols = plan.out_cols()
            for c in out_cols:
                self.emit(f"_out_{c} = []")

            def root_consume(env):
                for c in out_cols:
                    self.emit(f"_out_{c}.append({env[c]})")
                    self.cur.instr += costs.STORE

            self.gen(plan, root_consume)
            cols = ", ".join(f"{c!r}: _out_{c}" for c in out_cols)
            self.emit(f"_root = rt.lists_to_df({{{cols}}})")
            self.root_result_var = "_root"

    def source(self) -> str:
        head = ["def __run(tables, rt, hts, C, prebuilt):"]
        inits = [f"    _c_{r.key} = 0" for r in self.regions]
        stores = [f"    C[{r.key!r}] = _c_{r.key}" for r in self.regions]
        ret = [f"    return {self.root_result_var}"]
        return "\n".join(head + inits + self.body + stores + ret) + "\n"


def generate(plan, partial: bool = False, hash_fn: str = "crc") -> CodeGen:
    cg = CodeGen(hash_fn=hash_fn)
    cg.gen_query(plan, partial)
    return cg
