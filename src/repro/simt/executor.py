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
from typing import Dict, List, Optional, Tuple

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
    dest_value: Optional[np.ndarray] = None
    branch_taken_mask: Optional[np.ndarray] = None
    mem_addresses: Optional[np.ndarray] = None
    retired: bool = False
    hit_barrier: bool = False


_INT = np.int64
_FLOAT = np.float64


def _to_int(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.kind == "f":
        return np.trunc(arr).astype(_INT)
    return arr.astype(_INT, copy=False)


def _to_float(arr: np.ndarray) -> np.ndarray:
    return arr.astype(_FLOAT, copy=False)


class FunctionalEngine:
    """Executes instructions with architectural semantics."""

    def __init__(self, ctx: ExecutionContext, tracer: Optional[Tracer] = None):
        self.ctx = ctx
        self.tracer = tracer
        self.instructions_executed = 0
        #: true once any global atomic has run (DARSIE's global
        #: communication event, Section 4.4).
        self.global_communication_seen = False
        # Operand overrides for the instruction currently executing.
        # DARSIE follower warps read renamed registers: the timing core
        # captures those values in fetch order and passes them here so
        # evaluation bypasses the warp's (stale) private register.
        self._reg_overrides: Dict[str, np.ndarray] = {}
        self._pred_overrides: Dict[str, np.ndarray] = {}
        # Read-only 32-lane arrays of Immediate/Param operands, built on
        # first use: id(operand) -> (operand, array).  Keyed by identity,
        # not equality: the frozen operand dataclasses make Immediate(1)
        # == Immediate(1.0) and Immediate(0.0) == Immediate(-0.0), which
        # differ in dtype or sign.  Holding the operand keeps its id
        # from being reused by another object.
        self._constants: Dict[int, Tuple[object, np.ndarray]] = {}

    def __getstate__(self):
        # The constant cache is keyed by id(), which a pickle round trip
        # (a simulation checkpoint) does not preserve: rebuild it instead.
        state = dict(self.__dict__)
        state["_constants"] = {}
        return state

    # -- operand evaluation ------------------------------------------------

    def _eval(self, operand, warp: WarpState, tb: ThreadBlockState) -> np.ndarray:
        n = self.ctx.launch.warp_size
        if isinstance(operand, Register):
            override = self._reg_overrides.get(operand.name)
            if override is not None:
                return override
            return warp.registers.read(operand.name)
        if isinstance(operand, Predicate):
            override = self._pred_overrides.get(operand.name)
            if override is not None:
                return override
            return warp.registers.read_pred(operand.name)
        cached = self._constants.get(id(operand))
        if cached is not None:
            return cached[1]
        if isinstance(operand, Immediate):
            dtype = _FLOAT if operand.is_float else _INT
            return self._constant(operand, np.full(n, operand.value, dtype=dtype))
        if isinstance(operand, Param):
            value = self.ctx.params[operand.name]
            dtype = _FLOAT if isinstance(value, float) else _INT
            return self._constant(operand, np.full(n, value, dtype=dtype))
        if isinstance(operand, Special):
            return self._eval_special(operand.name, warp, tb)
        raise ExecutionError(f"cannot evaluate operand {operand!r}")

    def _constant(self, operand, array: np.ndarray) -> np.ndarray:
        array.setflags(write=False)  # an in-place use raises, not corrupts
        self._constants[id(operand)] = (operand, array)
        return array

    def _eval_special(self, name: str, warp: WarpState, tb: ThreadBlockState) -> np.ndarray:
        n = self.ctx.launch.warp_size
        layout = self.ctx.layout
        if name.startswith("tid."):
            return layout.tid(warp.warp_id, name[-1])
        if name.startswith("ntid."):
            return np.full(n, getattr(self.ctx.launch.block_dim, name[-1]), dtype=_INT)
        if name.startswith("ctaid."):
            return np.full(n, getattr(tb.block_idx, name[-1]), dtype=_INT)
        if name.startswith("nctaid."):
            return np.full(n, getattr(self.ctx.launch.grid_dim, name[-1]), dtype=_INT)
        if name == "laneid":
            return np.arange(n, dtype=_INT)
        if name == "warpid":
            return np.full(n, warp.warp_id, dtype=_INT)
        if name == "smem_base":
            return np.zeros(n, dtype=_INT)
        raise ExecutionError(f"unhandled special %{name}")

    def _address(self, mem: MemRef, warp: WarpState, tb: ThreadBlockState) -> np.ndarray:
        addr = _to_int(self._eval(mem.base, warp, tb)).copy()
        if mem.index is not None:
            addr += _to_int(self._eval(mem.index, warp, tb))
        if mem.offset:
            addr += mem.offset
        return addr

    def _space(self, mem: MemRef, tb: ThreadBlockState):
        if mem.space is MemSpace.GLOBAL:
            return self.ctx.memory
        if mem.space is MemSpace.SHARED:
            return tb.shared
        raise ExecutionError(f"cannot load/store space {mem.space}")

    # -- instruction semantics ----------------------------------------------

    def execute_instruction(
        self,
        tb: ThreadBlockState,
        warp: WarpState,
        inst: Instruction,
        reg_overrides: Optional[Dict[str, np.ndarray]] = None,
        pred_overrides: Optional[Dict[str, np.ndarray]] = None,
    ) -> StepResult:
        """Execute ``inst`` for ``warp`` and advance its PC.

        The caller is responsible for only invoking this at the warp's
        current PC (the timing model guarantees it by issuing in order).
        ``reg_overrides`` / ``pred_overrides`` substitute source values
        for renamed registers (DARSIE follower reads).
        """
        if warp.exited:
            raise ExecutionError("executing on an exited warp")
        self._reg_overrides = reg_overrides or {}
        self._pred_overrides = pred_overrides or {}
        active = warp.active_mask
        if inst.guard is not None:
            override = self._pred_overrides.get(inst.guard.name)
            guard = override if override is not None else warp.registers.read_pred(inst.guard.name)
            if inst.guard_negated:
                guard = ~guard
            exec_mask = active & guard
        else:
            exec_mask = active.copy()

        self.instructions_executed += 1
        result = StepResult(inst=inst, warp=warp, exec_mask=exec_mask)
        op = inst.opcode

        if op is Opcode.BRA:
            self._execute_branch(tb, warp, inst, exec_mask, result)
        elif op is Opcode.EXIT:
            self._execute_exit(warp, result)
        elif op is Opcode.BAR:
            warp.at_barrier = True
            result.hit_barrier = True
            self._advance(warp)
        elif op is Opcode.LD:
            self._execute_load(tb, warp, inst, exec_mask, result)
            self._advance(warp)
        elif op is Opcode.ST:
            self._execute_store(tb, warp, inst, exec_mask, result)
            self._advance(warp)
        elif op is Opcode.ATOM:
            self._execute_atomic(tb, warp, inst, exec_mask, result)
            self._advance(warp)
        elif op is Opcode.NOP:
            self._advance(warp)
        elif op is Opcode.SETP:
            value = self._alu(inst, warp, tb)
            warp.registers.write_pred(inst.dest_predicate().name, value, exec_mask)
            result.dest_value = value
            self._advance(warp)
        else:
            value = self._alu(inst, warp, tb)
            warp.registers.write(inst.dest_register().name, value, exec_mask)
            result.dest_value = value
            self._advance(warp)

        self._reg_overrides = {}
        self._pred_overrides = {}
        if self.tracer is not None:
            self.tracer.record(tb, warp, result)
        return result

    def _advance(self, warp: WarpState) -> None:
        warp.pc += INSTRUCTION_BYTES
        warp.maybe_reconverge()

    def _execute_branch(
        self,
        tb: ThreadBlockState,
        warp: WarpState,
        inst: Instruction,
        exec_mask: np.ndarray,
        result: StepResult,
    ) -> None:
        active = warp.active_mask
        taken = exec_mask
        result.branch_taken_mask = taken.copy()
        fallthrough = inst.pc + INSTRUCTION_BYTES
        assert inst.target_pc is not None
        if not taken.any():
            warp.pc = fallthrough
        elif bool(np.array_equal(taken, active)):
            warp.pc = inst.target_pc
        else:
            rpc = self.ctx.program.reconvergence_pc(inst.pc)
            warp.diverge(taken, fallthrough, inst.target_pc, rpc)
        warp.maybe_reconverge()

    def _execute_exit(self, warp: WarpState, result: StepResult) -> None:
        if len(warp.stack) > 1:
            # Divergent lanes finished; resume the other paths.
            warp.stack.pop()
            warp.invalidate_divergence()
        else:
            warp.retire()
            result.retired = True

    def _execute_load(self, tb, warp, inst, exec_mask, result) -> None:
        space = self._space(inst.mem, tb)
        addr = self._address(inst.mem, warp, tb)
        result.mem_addresses = np.where(exec_mask, addr, 0)
        safe_addr = np.where(exec_mask, addr, 0)
        values = space.load(safe_addr, as_float=inst.dtype.is_float)
        warp.registers.write(inst.dest_register().name, values, exec_mask)
        result.dest_value = values

    def _execute_store(self, tb, warp, inst, exec_mask, result) -> None:
        space = self._space(inst.mem, tb)
        addr = self._address(inst.mem, warp, tb)
        result.mem_addresses = np.where(exec_mask, addr, 0)
        values = self._eval(inst.srcs[0], warp, tb)
        values = _to_float(values) if inst.dtype.is_float else _to_int(values)
        if exec_mask.all():
            space.store(addr, values)
        elif exec_mask.any():
            space.store(addr[exec_mask], values[exec_mask])

    def _execute_atomic(self, tb, warp, inst, exec_mask, result) -> None:
        if inst.mem.space is MemSpace.GLOBAL:
            self.global_communication_seen = True
        space = self._space(inst.mem, tb)
        addr = self._address(inst.mem, warp, tb)
        result.mem_addresses = np.where(exec_mask, addr, 0)
        operand = self._eval(inst.srcs[0], warp, tb)
        old = np.zeros(self.ctx.launch.warp_size, dtype=_FLOAT)
        for lane in np.flatnonzero(exec_mask):
            a = np.asarray([addr[lane]])
            old[lane] = space.load(a, as_float=True)[0]
            space.store(a, np.asarray([old[lane] + float(operand[lane])]))
        out = old if inst.dtype.is_float else old.astype(_INT)
        warp.registers.write(inst.dest_register().name, out, exec_mask)
        result.dest_value = out

    # -- ALU / SFU ops ------------------------------------------------------

    def _alu(self, inst: Instruction, warp: WarpState, tb: ThreadBlockState) -> np.ndarray:
        op = inst.opcode
        if op is Opcode.SELP:
            a = self._eval(inst.srcs[0], warp, tb)
            b = self._eval(inst.srcs[1], warp, tb)
            p = self._eval(inst.srcs[2], warp, tb).astype(bool)
            if inst.dtype.is_float:
                return np.where(p, _to_float(a), _to_float(b))
            return np.where(p, _to_int(a), _to_int(b))

        cast = _to_float if inst.dtype.is_float else _to_int
        args = [cast(self._eval(s, warp, tb)) for s in inst.srcs]

        if op in (Opcode.MOV, Opcode.CVT):
            return args[0].copy()
        if op is Opcode.ADD:
            return args[0] + args[1]
        if op is Opcode.SUB:
            return args[0] - args[1]
        if op is Opcode.MUL:
            return args[0] * args[1]
        if op is Opcode.MAD:
            return args[0] * args[1] + args[2]
        if op is Opcode.MIN:
            return np.minimum(args[0], args[1])
        if op is Opcode.MAX:
            return np.maximum(args[0], args[1])
        if op is Opcode.ABS:
            return np.abs(args[0])
        if op is Opcode.NEG:
            return -args[0]
        if op is Opcode.AND:
            return _to_int(args[0]) & _to_int(args[1])
        if op is Opcode.OR:
            return _to_int(args[0]) | _to_int(args[1])
        if op is Opcode.XOR:
            return _to_int(args[0]) ^ _to_int(args[1])
        if op is Opcode.NOT:
            return ~_to_int(args[0])
        if op is Opcode.SHL:
            return _to_int(args[0]) << np.clip(_to_int(args[1]), 0, 63)
        if op is Opcode.SHR:
            return _to_int(args[0]) >> np.clip(_to_int(args[1]), 0, 63)
        if op is Opcode.DIV:
            return self._safe_div(args[0], args[1], inst.dtype)
        if op is Opcode.REM:
            # C-style remainder: a - trunc(a/b)*b (also for floats).
            quot = np.trunc(self._safe_div(args[0], args[1], DType.F32))
            if inst.dtype.is_float:
                return args[0] - quot * args[1]
            return args[0] - quot.astype(_INT) * args[1]
        if op is Opcode.RCP:
            return self._safe_div(np.ones_like(args[0], dtype=_FLOAT), _to_float(args[0]), DType.F32)
        if op is Opcode.SQRT:
            return np.sqrt(np.maximum(_to_float(args[0]), 0.0))
        if op is Opcode.EX2:
            return np.exp2(np.clip(_to_float(args[0]), -1000, 1000))
        if op is Opcode.LG2:
            x = _to_float(args[0])
            return np.log2(np.where(x > 0, x, 1.0))
        if op is Opcode.SIN:
            return np.sin(_to_float(args[0]))
        if op is Opcode.COS:
            return np.cos(_to_float(args[0]))
        if op is Opcode.SETP:
            return self._compare(inst.cmp, args[0], args[1])
        raise ExecutionError(f"unimplemented opcode {op}")

    @staticmethod
    def _safe_div(a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(b != 0, _to_float(a) / np.where(b != 0, _to_float(b), 1.0), 0.0)
        if dtype.is_float:
            return out
        return np.trunc(out).astype(_INT)

    @staticmethod
    def _compare(cmp: CmpOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        table = {
            CmpOp.EQ: np.equal,
            CmpOp.NE: np.not_equal,
            CmpOp.LT: np.less,
            CmpOp.LE: np.less_equal,
            CmpOp.GT: np.greater,
            CmpOp.GE: np.greater_equal,
        }
        return table[cmp](a, b)


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
                inst = program.at(warp.pc)
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
