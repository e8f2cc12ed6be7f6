"""Instruction model: micro-ops, macro-ops, dynamic streams."""

from repro.isa.uop import (
    EXEC_EVENT,
    FP_CLASSES,
    LONG_ALU_CLASSES,
    MEMORY_CLASSES,
    MicroOp,
    OpClass,
    Workload,
    WorkloadColumns,
    validate_stream,
)

__all__ = [
    "EXEC_EVENT",
    "FP_CLASSES",
    "LONG_ALU_CLASSES",
    "MEMORY_CLASSES",
    "MicroOp",
    "OpClass",
    "Workload",
    "WorkloadColumns",
    "validate_stream",
]
