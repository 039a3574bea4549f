"""R6 fixture: module-level imports from a model package (core/) up
into the workload, harness, scenario and CLI layers."""

from typing import TYPE_CHECKING

import repro.workloads.registry  # EXPECT: R6
from repro.workloads.spec import WorkloadSpec  # EXPECT: R6
from repro.harness import runner  # EXPECT: R6
from repro import cli  # EXPECT: R6
from ..scenarios import spec  # EXPECT: R6

try:
    from repro.harness.cache import ResultCache  # EXPECT: R6
except ImportError:
    ResultCache = None

if TYPE_CHECKING:
    pass
else:
    from repro.workloads.source import TraceSource  # EXPECT: R6
