"""Loop-nest IR and the compiler front end (Phoenix/Omega substitute).

Programs are trees of affine loops over file-block I/O ops and compute
steps.  Two slack-extraction paths exist, matching the paper: the
polyhedral-style :class:`AffineDependenceAnalyzer` for affine programs and
the profiling executor :func:`trace_program` for everything.
"""

from .affine import Affine, as_affine, const, var
from .dependence import AffineDependenceAnalyzer, solve_affine_equal
from .profiling import AccessTrace, ProcessTrace, TracedIO, trace_program
from .program import Compute, FileDecl, Loop, Program, Read, Write

__all__ = [
    "Affine",
    "var",
    "const",
    "as_affine",
    "Program",
    "FileDecl",
    "Loop",
    "Read",
    "Write",
    "Compute",
    "trace_program",
    "AccessTrace",
    "ProcessTrace",
    "TracedIO",
    "AffineDependenceAnalyzer",
    "solve_affine_equal",
]
