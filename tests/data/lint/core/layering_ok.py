"""R6 non-trigger: downward imports, and the two exempt forms of an
upward reference (TYPE_CHECKING-only and function-local)."""

import typing
from typing import TYPE_CHECKING

import numpy

from repro import config
from repro.config import SystemConfig
from repro.dram.device import DramDevice

from . import functions

if TYPE_CHECKING:
    from repro.workloads.spec import WorkloadSpec

if typing.TYPE_CHECKING:
    from repro.harness.runner import Runner


def build(spec: "WorkloadSpec") -> "Runner":
    # Resolved at call time, so booting this module loads no harness.
    from repro.harness.runner import Runner

    return Runner(SystemConfig(), DramDevice, config, functions, numpy, spec)
