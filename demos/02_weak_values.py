"""Weak values on the nested interferometer, postselected on port D2.

The particle leaves weak traces of strength 1/2 on both inner arms even
though the arms leading in and out of the inner loop carry none.

Run:  python3 demos/02_weak_values.py
"""

from tsvfsim.network import nested_mzi_preset
from tsvfsim.tsvf import (
    ArmProjector,
    backward_state,
    forward_state,
    postselection_amplitude,
    weak_value,
)

layout = nested_mzi_preset()
port = "D2"

amp = postselection_amplitude(layout, port)
print(f"postselection amplitude on {port}: {amp:.6f}")
print(f"postselection probability:        {abs(amp) ** 2:.6f}\n")

print("forward amplitudes at slice 2 and slice 3:")
for k in (2, 3):
    state = forward_state(layout, k)
    pairs = ", ".join(f"{a}={z:.4f}" for a, z in zip(state.arms, state.amplitudes))
    print(f"  slice {k}: {pairs}")

print("\nbackward components at the same slices:")
for k in (2, 3):
    co = backward_state(layout, port, k)
    pairs = ", ".join(f"{a}={z:.4f}" for a, z in zip(co.arms, co.amplitudes))
    print(f"  slice {k}: {pairs}")

print("\nweak values (projector on one arm):")
for arm, k in (("D", 1), ("B", 2), ("C", 2), ("N", 2), ("E", 3), ("F", 3)):
    value = weak_value(layout, port, ArmProjector(arm, k)).value
    print(f"  {arm}@{k}: {value:.6f}")

print("\nper-slice sums (always 1: the projectors on a slice are complete):")
for k in range(1, 4):
    total = sum(weak_value(layout, port, ArmProjector(a, k)).value
                for a in layout.slices[k])
    print(f"  slice {k}: {total:.6f}")
