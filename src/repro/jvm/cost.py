"""JVM execution cost model.

Fig. 4 of the paper compares FPGA designs against a *single-threaded Spark
executor on the JVM*.  Our substrate interprets real bytecode and charges
each executed instruction a calibrated latency that approximates steady
state JIT-compiled throughput on the paper's Xeon-class host (f1.2xlarge,
8-core CPU): simple integer/float ops are ~1 cycle at ~2.5 GHz plus JVM
overheads (bounds checks on array ops, virtual dispatch on invokes, object
allocation).

The absolute constants matter less than the *ratios* — the paper's speedup
shapes come from FPGA pipelining amortizing exactly these per-element
costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Nanoseconds charged per executed instruction, by group.
DEFAULT_COSTS_NS = {
    "const": 0.4,
    "local": 0.4,        # iload/istore and friends
    "array": 1.6,        # array access incl. bounds check
    "ialu": 0.4,
    "imul": 1.2,
    "idiv": 8.0,
    "falu": 0.8,
    "fmul": 1.2,
    "fdiv": 6.0,
    "stack": 0.2,
    "branch": 0.8,
    "invoke": 6.0,       # virtual/static dispatch overhead
    "field": 1.2,
    "alloc": 24.0,       # new/newarray: allocation + zeroing amortized
    "math_exp": 22.0,    # Math.exp/log
    "math_sqrt": 9.0,
    "math_cheap": 1.5,   # abs/min/max
    "convert": 0.6,
    "return": 1.0,
    "other": 0.6,
}

_GROUP_OF: dict[str, str] = {}


def _group(mnemonics: list[str], group: str) -> None:
    for m in mnemonics:
        _GROUP_OF[m] = group


_group(["nop"], "other")
_group(["aconst_null", "iconst_m1", "iconst_0", "iconst_1", "iconst_2",
        "iconst_3", "iconst_4", "iconst_5", "lconst_0", "lconst_1",
        "fconst_0", "fconst_1", "fconst_2", "dconst_0", "dconst_1",
        "bipush", "sipush", "ldc", "ldc2_w"], "const")
_group(["iload", "lload", "fload", "dload", "aload",
        "istore", "lstore", "fstore", "dstore", "astore", "iinc"], "local")
_group(["iaload", "laload", "faload", "daload", "aaload", "baload",
        "caload", "saload", "iastore", "lastore", "fastore", "dastore",
        "aastore", "bastore", "castore", "sastore", "arraylength"], "array")
_group(["iadd", "isub", "ineg", "ishl", "ishr", "iushr", "iand", "ior",
        "ixor", "ladd", "lsub", "lneg", "lshl", "lshr", "land", "lor",
        "lxor", "lcmp"], "ialu")
_group(["imul", "lmul"], "imul")
_group(["idiv", "irem", "ldiv", "lrem"], "idiv")
_group(["fadd", "fsub", "fneg", "dadd", "dsub", "dneg",
        "fcmpl", "fcmpg", "dcmpl", "dcmpg"], "falu")
_group(["fmul", "dmul"], "fmul")
_group(["fdiv", "ddiv", "frem", "drem"], "fdiv")
_group(["pop", "pop2", "dup", "dup_x1", "dup_x2", "dup2", "swap"], "stack")
_group(["ifeq", "ifne", "iflt", "ifge", "ifgt", "ifle",
        "if_icmpeq", "if_icmpne", "if_icmplt", "if_icmpge", "if_icmpgt",
        "if_icmple", "if_acmpeq", "if_acmpne", "ifnull", "ifnonnull",
        "goto"], "branch")
_group(["invokevirtual", "invokespecial", "invokestatic"], "invoke")
_group(["getfield", "putfield", "getstatic", "putstatic"], "field")
_group(["new", "newarray", "anewarray"], "alloc")
_group(["i2l", "i2f", "i2d", "l2i", "l2f", "l2d", "f2i", "f2l", "f2d",
        "d2i", "d2l", "d2f", "i2b", "i2c", "i2s"], "convert")
_group(["ireturn", "lreturn", "freturn", "dreturn", "areturn",
        "return"], "return")


def group_of(mnemonic: str) -> str:
    """Cost group of a mnemonic."""
    return _GROUP_OF.get(mnemonic, "other")


@dataclass
class OpCostTable:
    """Accumulates executed-instruction counts and virtual nanoseconds."""

    costs_ns: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COSTS_NS))
    counts: dict[str, int] = field(default_factory=dict)
    total_ns: float = 0.0
    instructions: int = 0

    def charge(self, mnemonic: str) -> None:
        group = group_of(mnemonic)
        self.counts[group] = self.counts.get(group, 0) + 1
        self.total_ns += self.costs_ns[group]
        self.instructions += 1

    def charge_math(self, name: str) -> None:
        """Extra charge for a java/lang/Math intrinsic body."""
        if name in ("exp", "log"):
            group = "math_exp"
        elif name == "sqrt":
            group = "math_sqrt"
        else:
            group = "math_cheap"
        self.counts[group] = self.counts.get(group, 0) + 1
        self.total_ns += self.costs_ns[group]

    def reset(self) -> None:
        self.counts.clear()
        self.total_ns = 0.0
        self.instructions = 0

    @property
    def total_seconds(self) -> float:
        return self.total_ns * 1e-9
