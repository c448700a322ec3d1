"""Iterative modulo scheduling [Rau94]: the third scheduler in the showdown."""

from .scheduler import (
    RauOptions,
    height_r,
    iterative_modulo_schedule,
    rau_pipeline_loop,
)

__all__ = [
    "RauOptions",
    "height_r",
    "iterative_modulo_schedule",
    "rau_pipeline_loop",
]
