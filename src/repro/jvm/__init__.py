"""JVM substrate: classfile model, assembler, binary codec, interpreter."""

from .assembler import CodeBuilder, assemble, stack_delta  # noqa: F401
from .classfile import (  # noqa: F401
    ACC_FINAL,
    ACC_PUBLIC,
    ACC_STATIC,
    ClassRegistry,
    Instr,
    JClass,
    JField,
    JMethod,
)
from .codec import read_class, write_class  # noqa: F401
from .cost import OpCostTable, group_of  # noqa: F401
from .descriptors import (  # noqa: F401
    MethodDescriptor,
    parse_method_descriptor,
    pretty_type,
    slot_width,
)
from .disassembler import disassemble_class, disassemble_method  # noqa: F401
from .interpreter import Interpreter, JArray, JObject  # noqa: F401
from .tac import (  # noqa: F401
    TACInterpreter,
    class_tac_text,
    lower_method,
    program_tac_text,
)
from .stdlib import (  # noqa: F401
    is_tuple_class,
    make_tuple_class,
    tuple_class_name,
)
