"""Functional SIMT executor.

Executes assembled kernels warp-by-warp with full architectural
semantics: 32-lane vector operations, predication, SIMT-stack divergence,
shared/global memory and TB-wide barriers.

Two consumers share this engine:

- :func:`run_functional` — a standalone functional simulation used by the
  redundancy limit studies (Figures 1 and 2) and as the correctness
  oracle that DARSIE-enabled timing runs are checked against;
- :mod:`repro.timing` — the cycle-level model calls
  :meth:`FunctionalEngine.execute_instruction` at the issue stage, so
  timing and functional behaviour can never diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.isa.instructions import CmpOp, DType, INSTRUCTION_BYTES, Instruction, Opcode
from repro.isa.operands import Immediate, MemRef, MemSpace, Param, Predicate, Register, Special
from repro.isa.program import Program
from repro.simt.grid import Dim3, LaunchConfig, WarpLayout
from repro.simt.memory import GlobalMemory, KernelParams, SharedMemory
from repro.simt.tracer import Tracer
from repro.simt.warp import WarpState


class ExecutionError(RuntimeError):
    """Raised on a semantic error during kernel execution."""


@dataclass
class ExecutionContext:
    """Everything a kernel launch needs besides per-TB state."""

    program: Program
    launch: LaunchConfig
    memory: GlobalMemory
    params: KernelParams
    layout: WarpLayout = field(init=False)

    def __post_init__(self) -> None:
        self.params.validate_against(self.program.params)
        self.layout = WarpLayout(self.launch)


class ThreadBlockState:
    """Runtime state of one threadblock resident on an SM."""

    def __init__(self, ctx: ExecutionContext, tb_index: int):
        self.ctx = ctx
        self.tb_index = tb_index
        self.block_idx: Dim3 = ctx.launch.block_index(tb_index)
        shared_words = max(ctx.program.shared_words, 1)
        self.shared = SharedMemory(shared_words)
        self.warps: List[WarpState] = [
            WarpState.create(w, tb_index, ctx.layout.active_mask(w))
            for w in range(ctx.launch.warps_per_block)
        ]

    @property
    def done(self) -> bool:
        return all(w.exited for w in self.warps)

    def live_warps(self) -> List[WarpState]:
        return [w for w in self.warps if not w.exited]

    def release_barrier_if_ready(self) -> bool:
        """Release all warps when every live warp has reached ``bar.sync``."""
        live = self.live_warps()
        if live and all(w.at_barrier for w in live):
            for w in live:
                w.at_barrier = False
            return True
        return False


@dataclass
class StepResult:
    """Outcome of executing one warp instruction."""

    inst: Instruction
    warp: WarpState
    exec_mask: np.ndarray
    #: ``exec_mask`` covers every hardware lane of the warp: no guard,
    #: divergent path or dead lane of a partial warp left one out
    full_warp: bool = False
    dest_value: Optional[np.ndarray] = None
    branch_taken_mask: Optional[np.ndarray] = None
    mem_addresses: Optional[np.ndarray] = None
    retired: bool = False
    hit_barrier: bool = False


_INT = np.int64
_FLOAT = np.float64
_INT_DTYPE = np.dtype(_INT)
_FLOAT_DTYPE = np.dtype(_FLOAT)
_BOOL_DTYPE = np.dtype(bool)

Overrides = Optional[Dict[str, np.ndarray]]
#: ``reader(warp, tb, reg_overrides, pred_overrides)`` -> one operand's lanes
Reader = Callable[[WarpState, "ThreadBlockState", Overrides, Overrides], np.ndarray]
#: ``thunk(tb, warp, reg_overrides, pred_overrides)`` -> the step's result
Thunk = Callable[["ThreadBlockState", WarpState, Overrides, Overrides], StepResult]
#: ``body(tb, warp, result, write_mask, reg_overrides, pred_overrides)``:
#: an opcode's effect once the exec mask is known; ``write_mask`` is
#: None when every lane executes
Body = Callable[..., None]


def _to_int(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.kind == "f":
        return np.trunc(arr).astype(_INT)
    return arr.astype(_INT, copy=False)


def _to_float(arr: np.ndarray) -> np.ndarray:
    return arr.astype(_FLOAT, copy=False)


def _to_bool(arr: np.ndarray) -> np.ndarray:
    return arr.astype(bool)


def _float_to_int(arr: np.ndarray) -> np.ndarray:
    return _to_int(_to_float(arr))


def _int_to_float(arr: np.ndarray) -> np.ndarray:
    return _to_float(_to_int(arr))


#: casts that return their input unchanged for lanes already of this dtype
_CAST_KEEPS = {_to_int: _INT_DTYPE, _to_float: _FLOAT_DTYPE, _to_bool: _BOOL_DTYPE}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # an in-place use raises, not corrupts
    return array


def _safe_div(a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(b != 0, _to_float(a) / np.where(b != 0, _to_float(b), 1.0), 0.0)
    if dtype.is_float:
        return out
    return np.trunc(out).astype(_INT)


_COMPARE = {
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
}

#: ALU/SFU opcodes whose semantics are one numpy call on the cast sources
_UFUNCS = {
    Opcode.MOV: np.ndarray.copy,
    Opcode.CVT: np.ndarray.copy,
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.MUL: np.multiply,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.ABS: np.abs,
    Opcode.NEG: np.negative,
    Opcode.AND: np.bitwise_and,
    Opcode.OR: np.bitwise_or,
    Opcode.XOR: np.bitwise_xor,
    Opcode.NOT: np.invert,
    Opcode.SIN: np.sin,
    Opcode.COS: np.cos,
}
#: opcodes that operate on integer lanes whatever the type suffix
_INT_OPS = frozenset({Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR})
#: opcodes that operate on float lanes whatever the type suffix
_FLOAT_OPS = frozenset(
    {Opcode.RCP, Opcode.SQRT, Opcode.EX2, Opcode.LG2, Opcode.SIN, Opcode.COS}
)


def _semantics(inst: Instruction) -> Callable[..., np.ndarray]:
    """The lane function of an ALU/SFU opcode over its cast sources."""
    op = inst.opcode
    dtype = inst.dtype
    fn = _UFUNCS.get(op)
    if fn is not None:
        return fn
    if op is Opcode.SETP:
        return _COMPARE[inst.cmp]
    if op is Opcode.SELP:
        return lambda a, b, p: np.where(p, a, b)
    if op is Opcode.MAD:
        return lambda a, b, c: a * b + c
    if op is Opcode.SHL:
        return lambda a, b: a << np.clip(b, 0, 63)
    if op is Opcode.SHR:
        return lambda a, b: a >> np.clip(b, 0, 63)
    if op is Opcode.DIV:
        return lambda a, b: _safe_div(a, b, dtype)
    if op is Opcode.REM:
        # C-style remainder: a - trunc(a/b)*b (also for floats).
        if dtype.is_float:
            return lambda a, b: a - np.trunc(_safe_div(a, b, DType.F32)) * b
        return lambda a, b: a - np.trunc(_safe_div(a, b, DType.F32)).astype(_INT) * b
    if op is Opcode.RCP:
        return lambda a: _safe_div(np.ones_like(a), a, DType.F32)
    if op is Opcode.SQRT:
        return lambda a: np.sqrt(np.maximum(a, 0.0))
    if op is Opcode.EX2:
        return lambda a: np.exp2(np.clip(a, -1000, 1000))
    if op is Opcode.LG2:
        return lambda a: np.log2(np.where(a > 0, a, 1.0))
    raise ExecutionError(f"unimplemented opcode {op}")


def _source_casts(inst: Instruction) -> List[Callable[[np.ndarray], np.ndarray]]:
    """Per-source casts of an ALU/SFU instruction: every source goes to
    the instruction's lane type, then bitwise ops take integer lanes and
    transcendental ops float lanes (``selp``'s selector goes to bool)."""
    base = _to_float if inst.dtype.is_float else _to_int
    op = inst.opcode
    if op is Opcode.SELP:
        return [base, base, _to_bool]
    cast = base
    if op in _INT_OPS and base is _to_float:
        cast = _float_to_int
    elif op in _FLOAT_OPS:
        cast = _to_float if base is _to_float else _int_to_float
    return [cast] * len(inst.srcs)


class FunctionalEngine:
    """Executes instructions with architectural semantics.

    Each instruction is compiled once per engine, the first time its PC
    executes, into a *thunk*: a closure with the opcode's semantics,
    its operand readers, its destination and its guard handling already
    resolved.  :meth:`execute_instruction` is then a table lookup and
    one call.
    """

    def __init__(self, ctx: ExecutionContext, tracer: Optional[Tracer] = None):
        self.ctx = ctx
        self.tracer = tracer
        self.instructions_executed = 0
        #: true once any global atomic has run (DARSIE's global
        #: communication event, Section 4.4).
        self.global_communication_seen = False
        #: compiled instructions: pc -> (instruction, thunk).  The
        #: instruction is kept to recognise a different one at a known PC
        #: (a transformed program run on the same engine).
        self._code: Dict[int, Tuple[Instruction, Thunk]] = {}

    def __getstate__(self):
        # Closures do not pickle (a simulation checkpoint): drop the
        # compiled table; it rebuilds PC by PC on first use after restore.
        state = dict(self.__dict__)
        state["_code"] = {}
        return state

    def execute_instruction(
        self,
        tb: ThreadBlockState,
        warp: WarpState,
        inst: Instruction,
        reg_overrides: Overrides = None,
        pred_overrides: Overrides = None,
    ) -> StepResult:
        """Execute ``inst`` for ``warp`` and advance its PC.

        The caller is responsible for only invoking this at the warp's
        current PC (the timing model guarantees it by issuing in order).
        ``reg_overrides`` / ``pred_overrides`` substitute source values
        for renamed registers (DARSIE follower reads).
        """
        if warp.exited:
            raise ExecutionError("executing on an exited warp")
        code = self._code.get(inst.pc)
        if code is None or code[0] is not inst:
            code = self._compile(inst)
        self.instructions_executed += 1
        result = code[1](tb, warp, reg_overrides, pred_overrides)
        if self.tracer is not None:
            self.tracer.record(tb, warp, result)
        return result

    # -- compilation ---------------------------------------------------------

    def _compile(self, inst: Instruction) -> Tuple[Instruction, Thunk]:
        body = self._body(inst)
        guard = inst.guard.name if inst.guard is not None else None
        negated = inst.guard_negated

        def thunk(tb, warp, regs, preds):
            active = warp.stack[-1].active_mask
            if guard is None:
                exec_mask = active.copy()
            else:
                value = preds.get(guard) if preds else None
                if value is None:
                    value = warp.registers.read_pred(guard)
                exec_mask = active & ~value if negated else active & value
            # Masks are bool vectors: a zero byte is a clear lane.
            if b"\x00" not in exec_mask.tobytes():
                full, write_mask = True, None
            else:
                # A divergent stack's top mask is a strict subset of the
                # warp's lanes, and a converged one is all of them, so
                # only a guard on a converged warp needs the reduction.
                full = not warp.has_simd_divergence and (
                    guard is None or not (warp.hw_mask & ~exec_mask).any()
                )
                write_mask = exec_mask
            result = StepResult(inst, warp, exec_mask, full)
            body(tb, warp, result, write_mask, regs, preds)
            return result

        code = self._code[inst.pc] = (inst, thunk)
        return code

    def _body(self, inst: Instruction) -> Body:
        op = inst.opcode
        if op is Opcode.BRA:
            return self._branch(inst)
        if op is Opcode.EXIT:
            return _exit
        if op is Opcode.BAR:
            return _barrier
        if op is Opcode.NOP:
            return _nop
        if op is Opcode.LD:
            return self._load(inst)
        if op is Opcode.ST:
            return self._store(inst)
        if op is Opcode.ATOM:
            return self._atomic(inst)
        return self._alu(inst)

    # -- operand readers -----------------------------------------------------

    def _reader(self, operand, cast: Optional[Callable] = None) -> Reader:
        """A reader of ``operand``'s lanes, passed through ``cast``.

        Constants (immediates, parameters and launch-wide specials) are
        cast once here into a read-only array; registers honour the
        DARSIE follower overrides.
        """
        keep = _CAST_KEEPS.get(cast)
        if isinstance(operand, (Register, Predicate)):
            name = operand.name
            is_pred = isinstance(operand, Predicate)

            def read(warp, tb, regs, preds):
                overrides = preds if is_pred else regs
                value = overrides.get(name) if overrides else None
                if value is None:
                    registers = warp.registers
                    value = registers.read_pred(name) if is_pred else registers.read(name)
                if cast is None or value.dtype is keep:
                    return value
                return cast(value)

            return read
        constant = self._constant(operand)
        if constant is not None:
            if cast is not None:
                constant = cast(constant)
            constant = _read_only(constant)
            return lambda warp, tb, regs, preds: constant
        if isinstance(operand, Special):
            special = self._special(operand.name)

            def read_special(warp, tb, regs, preds):
                value = special(warp, tb)
                if cast is None or value.dtype is keep:
                    return value
                return cast(value)

            return read_special
        raise ExecutionError(f"cannot evaluate operand {operand!r}")

    def _constant(self, operand) -> Optional[np.ndarray]:
        """A fresh array of an operand whose lanes are fixed for the
        whole launch, or None for a per-warp or per-TB operand."""
        n = self.ctx.launch.warp_size
        if isinstance(operand, Immediate):
            return np.full(n, operand.value, dtype=_FLOAT if operand.is_float else _INT)
        if isinstance(operand, Param):
            value = self.ctx.params[operand.name]
            return np.full(n, value, dtype=_FLOAT if isinstance(value, float) else _INT)
        if not isinstance(operand, Special):
            return None
        name = operand.name
        launch = self.ctx.launch
        if name.startswith("ntid."):
            return np.full(n, getattr(launch.block_dim, name[-1]), dtype=_INT)
        if name.startswith("nctaid."):
            return np.full(n, getattr(launch.grid_dim, name[-1]), dtype=_INT)
        if name == "laneid":
            return np.arange(n, dtype=_INT)
        if name == "smem_base":
            return np.zeros(n, dtype=_INT)
        return None

    def _special(self, name: str) -> Callable[[WarpState, ThreadBlockState], np.ndarray]:
        n = self.ctx.launch.warp_size
        layout = self.ctx.layout
        axis = name[-1]
        if name.startswith("tid."):
            return lambda warp, tb: layout.tid(warp.warp_id, axis)
        if name.startswith("ctaid."):
            return lambda warp, tb: np.full(n, getattr(tb.block_idx, axis), dtype=_INT)
        if name == "warpid":
            return lambda warp, tb: np.full(n, warp.warp_id, dtype=_INT)
        raise ExecutionError(f"unhandled special %{name}")

    def _address(self, mem: MemRef) -> Reader:
        base = self._reader(mem.base, _to_int)
        index = self._reader(mem.index, _to_int) if mem.index is not None else None
        offset = mem.offset

        def address(warp, tb, regs, preds):
            addr = base(warp, tb, regs, preds).copy()
            if index is not None:
                addr += index(warp, tb, regs, preds)
            if offset:
                addr += offset
            return addr

        return address

    def _space(self, mem: MemRef) -> Callable[[ThreadBlockState], object]:
        if mem.space is MemSpace.GLOBAL:
            memory = self.ctx.memory
            return lambda tb: memory
        if mem.space is MemSpace.SHARED:
            return lambda tb: tb.shared
        raise ExecutionError(f"cannot load/store space {mem.space}")

    # -- instruction bodies --------------------------------------------------

    def _branch(self, inst: Instruction) -> Body:
        assert inst.target_pc is not None
        target = inst.target_pc
        fallthrough = inst.pc + INSTRUCTION_BYTES
        program = self.ctx.program

        def branch(tb, warp, result, write_mask, regs, preds):
            taken = result.exec_mask
            result.branch_taken_mask = taken.copy()
            top = warp.stack[-1]
            if write_mask is None:
                top.pc = target
            else:
                lanes = taken.tobytes()
                if b"\x01" not in lanes:
                    top.pc = fallthrough
                elif lanes == top.active_mask.tobytes():
                    top.pc = target
                else:
                    warp.diverge(taken, fallthrough, target, program.reconvergence_pc(inst.pc))
            if len(warp.stack) > 1:
                warp.maybe_reconverge()

        return branch

    def _load(self, inst: Instruction) -> Body:
        space_of = self._space(inst.mem)
        address = self._address(inst.mem)
        as_float = inst.dtype.is_float
        dest = inst.dst_reg.name

        def load(tb, warp, result, write_mask, regs, preds):
            space = space_of(tb)
            addr = address(warp, tb, regs, preds)
            if write_mask is not None:
                addr = np.where(write_mask, addr, 0)
            result.mem_addresses = addr
            values = space.load(addr, as_float=as_float)
            warp.registers.write(dest, values, write_mask)
            result.dest_value = values
            _advance(warp)

        return load

    def _store(self, inst: Instruction) -> Body:
        space_of = self._space(inst.mem)
        address = self._address(inst.mem)
        source = self._reader(inst.srcs[0], _to_float if inst.dtype.is_float else _to_int)

        def store(tb, warp, result, write_mask, regs, preds):
            space = space_of(tb)
            addr = address(warp, tb, regs, preds)
            values = source(warp, tb, regs, preds)
            if write_mask is None:
                result.mem_addresses = addr
                space.store(addr, values)
            else:
                result.mem_addresses = np.where(write_mask, addr, 0)
                if b"\x01" in write_mask.tobytes():
                    space.store(addr[write_mask], values[write_mask])
            _advance(warp)

        return store

    def _atomic(self, inst: Instruction) -> Body:
        communicates = inst.mem.space is MemSpace.GLOBAL
        space_of = self._space(inst.mem)
        address = self._address(inst.mem)
        operand_of = self._reader(inst.srcs[0])
        n = self.ctx.launch.warp_size
        as_float = inst.dtype.is_float
        dest = inst.dst_reg.name

        def atomic(tb, warp, result, write_mask, regs, preds):
            if communicates:
                self.global_communication_seen = True
            space = space_of(tb)
            addr = address(warp, tb, regs, preds)
            exec_mask = result.exec_mask
            result.mem_addresses = np.where(exec_mask, addr, 0)
            operand = operand_of(warp, tb, regs, preds)
            old = np.zeros(n, dtype=_FLOAT)
            for lane in np.flatnonzero(exec_mask):
                a = np.asarray([addr[lane]])
                old[lane] = space.load(a, as_float=True)[0]
                space.store(a, np.asarray([old[lane] + float(operand[lane])]))
            out = old if as_float else old.astype(_INT)
            warp.registers.write(dest, out, write_mask)
            result.dest_value = out
            _advance(warp)

        return atomic

    def _alu(self, inst: Instruction) -> Body:
        fn = _semantics(inst)
        readers = [self._reader(s, c) for s, c in zip(inst.srcs, _source_casts(inst))]
        is_setp = inst.opcode is Opcode.SETP
        dest = inst.dst_pred.name if is_setp else inst.dst_reg.name
        if len(readers) == 1:
            (r0,) = readers

            def compute(warp, tb, regs, preds):
                return fn(r0(warp, tb, regs, preds))
        elif len(readers) == 2:
            r0, r1 = readers

            def compute(warp, tb, regs, preds):
                return fn(r0(warp, tb, regs, preds), r1(warp, tb, regs, preds))
        else:
            r0, r1, r2 = readers

            def compute(warp, tb, regs, preds):
                return fn(
                    r0(warp, tb, regs, preds),
                    r1(warp, tb, regs, preds),
                    r2(warp, tb, regs, preds),
                )

        def alu(tb, warp, result, write_mask, regs, preds):
            value = compute(warp, tb, regs, preds)
            if is_setp:
                warp.registers.write_pred(dest, value, write_mask)
            else:
                warp.registers.write(dest, value, write_mask)
            result.dest_value = value
            _advance(warp)

        return alu


def _advance(warp: WarpState) -> None:
    warp.stack[-1].pc += INSTRUCTION_BYTES
    if len(warp.stack) > 1:
        warp.maybe_reconverge()


def _exit(tb, warp, result, write_mask, regs, preds) -> None:
    if len(warp.stack) > 1:
        # Divergent lanes finished; resume the other paths.
        warp.stack.pop()
        warp.invalidate_divergence()
    else:
        warp.retire()
        result.retired = True


def _barrier(tb, warp, result, write_mask, regs, preds) -> None:
    warp.at_barrier = True
    result.hit_barrier = True
    _advance(warp)


def _nop(tb, warp, result, write_mask, regs, preds) -> None:
    _advance(warp)


def run_functional(
    program: Program,
    launch: LaunchConfig,
    memory: GlobalMemory,
    params: Optional[Dict] = None,
    tracer: Optional[Tracer] = None,
    max_steps: int = 50_000_000,
) -> FunctionalEngine:
    """Run a kernel to completion functionally.

    Threadblocks execute one after another; within a TB, live warps are
    stepped round-robin one instruction at a time, which approximates the
    lock-step progression DARSIE's static analysis assumes (Section 4.2)
    and aligns dynamic instruction streams for the limit studies.

    Returns the engine (for executed-instruction counts and the
    global-communication flag).
    """
    ctx = ExecutionContext(
        program=program,
        launch=launch,
        memory=memory,
        params=KernelParams(params or {}),
    )
    engine = FunctionalEngine(ctx, tracer=tracer)
    steps = 0
    for tb_index in range(launch.num_blocks):
        tb = ThreadBlockState(ctx, tb_index)
        if tracer is not None:
            tracer.begin_block(tb)
        while not tb.done:
            progressed = False
            for warp in tb.warps:
                if warp.exited or warp.at_barrier:
                    continue
                inst = program.at(warp.stack[-1].pc)
                engine.execute_instruction(tb, warp, inst)
                progressed = True
                steps += 1
                if steps > max_steps:
                    raise ExecutionError(f"exceeded {max_steps} steps; runaway kernel?")
            if not progressed and not tb.done:
                released = tb.release_barrier_if_ready()
                if not released:
                    raise ExecutionError("deadlock: no runnable warps and barrier not ready")
            else:
                tb.release_barrier_if_ready()
    return engine
