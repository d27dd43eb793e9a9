"""Value-change-dump (VCD) export of traced signals and analog probes.

Lets the Fig. 6 waveforms be inspected in GTKWave or any VCD viewer.
Digital items are emitted as 1-bit wires, analog items as ``real``
variables.  Accepted items: live :class:`Signal` / :class:`AnalogProbe`
objects, or the :class:`~repro.trace.ChannelView` adapters of a recorded
:class:`~repro.trace.TraceSet` (bool channels become wires, float
channels become reals) — the route :meth:`repro.trace.TraceSet.to_vcd`
uses to dump a cached traced run without re-simulating.
"""

from __future__ import annotations

from typing import List, Sequence, TextIO, Tuple, Union

from .signal import AnalogProbe, Signal

Traceable = Union[Signal, AnalogProbe]


def _is_digital(item) -> bool:
    """1-bit wire (Signal or bool ChannelView) vs real variable."""
    if isinstance(item, Signal):
        return True
    return bool(getattr(item, "is_digital", False))


_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short printable VCD identifier for variable ``index``."""
    chars = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(reversed(chars))


def write_vcd(out: TextIO, items: Sequence[Traceable],
              timescale: str = "1ps", scope: str = "repro") -> None:
    """Write all recorded history of ``items`` as a VCD document.

    Times are converted to integer multiples of the timescale (default 1 ps,
    ample for the nanosecond-scale designs in this library).
    """
    unit_map = {"1s": 1.0, "1ms": 1e-3, "1us": 1e-6, "1ns": 1e-9, "1ps": 1e-12}
    if timescale not in unit_map:
        raise ValueError(f"unsupported timescale {timescale!r}")
    unit = unit_map[timescale]

    out.write("$date reproduction run $end\n")
    out.write("$version repro buck simulator $end\n")
    out.write(f"$timescale {timescale} $end\n")
    out.write(f"$scope module {scope} $end\n")

    ids = {}
    for i, item in enumerate(items):
        ident = _identifier(i)
        ids[id(item)] = ident
        name = item.name.replace(" ", "_").replace(".", "_")
        if _is_digital(item):
            out.write(f"$var wire 1 {ident} {name} $end\n")
        else:
            out.write(f"$var real 64 {ident} {name} $end\n")
    out.write("$upscope $end\n$enddefinitions $end\n")

    # Merge all change records into one time-ordered stream.
    changes: List[Tuple[float, str]] = []
    for item in items:
        ident = ids[id(item)]
        if _is_digital(item):
            for t, v in zip(item.times, item.values):
                changes.append((t, f"{int(v)}{ident}"))
        else:
            for t, v in zip(item.times, item.values):
                changes.append((t, f"r{v:.9g} {ident}"))
    changes.sort(key=lambda c: c[0])

    last_tick = None
    for t, record in changes:
        tick = int(round(t / unit))
        if tick != last_tick:
            out.write(f"#{tick}\n")
            last_tick = tick
        out.write(record + "\n")


def dump_vcd(path: str, items: Sequence[Traceable], **kwargs) -> None:
    """Write a VCD file to ``path`` (see :func:`write_vcd`)."""
    with open(path, "w") as handle:
        write_vcd(handle, items, **kwargs)
