"""R6 non-trigger: gpu/ is not a lower layer yet, because its warps
consume workloads.source's WarpStream at runtime."""

from repro.workloads.source import WarpStream


def first_block(stream: WarpStream):
    return stream.next_block()
