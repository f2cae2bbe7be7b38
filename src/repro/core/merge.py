"""Merging 1st-order spanning convoys into maximal spanning convoys (§4.4).

This is the DCM-merge of the paper: windows are processed left to right;
convoys open at the shared benchmark point are intersected with the next
window's spanning convoys.  A convoy that does not continue *as a whole*
is closed — it is a maximal spanning convoy (Definition 9) unless subsumed.

The merge interns every object id once and runs the whole merge — intersections, whole-continuation tests, and subsumption
filtering — on big-int bitset masks, materializing frozensets only for
the final result.  :func:`merge_spanning_convoys_scalar` keeps the
original frozenset code as the test oracle.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .bitset import ObjectInterner, ObjectMask
from .types import Convoy, TimeInterval, update_maximal

#: Internal merge currency: ``(object mask, start, end)``.
_MaskConvoy = Tuple[ObjectMask, int, int]


def _update_maximal_masks(result: List[_MaskConvoy], candidate: _MaskConvoy) -> bool:
    """Mask-level twin of :func:`repro.core.types.update_maximal`."""
    mask, start, end = candidate
    for other_mask, other_start, other_end in result:
        if (
            mask & other_mask == mask
            and other_start <= start
            and end <= other_end
        ):
            return False
    result[:] = [
        other
        for other in result
        if not (
            other[0] & mask == other[0]
            and start <= other[1]
            and other[2] <= end
        )
    ]
    result.append(candidate)
    return True


def merge_spanning_convoys(
    windows: Sequence[Sequence[Convoy]], m: int
) -> List[Convoy]:
    """Merge per-window spanning convoys into maximal spanning convoys.

    ``windows[i]`` must hold convoys spanning hop window ``H_i`` — all with
    the same lifespan ``[b_i, b_{i+1}]`` — in left-to-right window order
    (the invariant is checked).  Returns mutually non-subsumed convoys with
    benchmark-aligned lifespans.
    """
    interner = ObjectInterner()
    closed: List[_MaskConvoy] = []
    open_convoys: List[_MaskConvoy] = []  # all end at the upcoming window's left edge
    for window_convoys in windows:
        if window_convoys:
            edge = window_convoys[0].start
            if any(c.start != edge for c in window_convoys):
                raise ValueError("window convoys must share one lifespan")
            if any(c.end <= edge for c in window_convoys):
                raise ValueError("window convoys must span forward in time")
        spanning_masks = [
            (interner.mask_of(c.objects), c.start, c.end) for c in window_convoys
        ]
        next_open: List[_MaskConvoy] = []
        for convoy_mask, convoy_start, convoy_end in open_convoys:
            continued_fully = False
            for spanning_mask, _, spanning_end in spanning_masks:
                joint = convoy_mask & spanning_mask
                if joint.bit_count() >= m:
                    _update_maximal_masks(
                        next_open, (joint, convoy_start, spanning_end)
                    )
                    if joint == convoy_mask:
                        continued_fully = True
            if not continued_fully:
                _update_maximal_masks(
                    closed, (convoy_mask, convoy_start, convoy_end)
                )
        for spanning in spanning_masks:
            _update_maximal_masks(next_open, spanning)
        open_convoys = next_open
    for convoy in open_convoys:
        _update_maximal_masks(closed, convoy)
    return [
        Convoy(interner.cluster_of(mask), TimeInterval(start, end))
        for mask, start, end in closed
    ]


def merge_spanning_convoys_scalar(
    windows: Sequence[Sequence[Convoy]], m: int
) -> List[Convoy]:
    """Frozenset DCM-merge (the original implementation; test oracle)."""
    closed: List[Convoy] = []
    open_convoys: List[Convoy] = []  # all end at the upcoming window's left edge
    for window_convoys in windows:
        if window_convoys:
            edge = window_convoys[0].start
            if any(c.start != edge for c in window_convoys):
                raise ValueError("window convoys must share one lifespan")
            if any(c.end <= edge for c in window_convoys):
                raise ValueError("window convoys must span forward in time")
        next_open: List[Convoy] = []
        for convoy in open_convoys:
            continued_fully = False
            for spanning in window_convoys:
                joint = convoy.objects & spanning.objects
                if len(joint) >= m:
                    merged = Convoy(
                        joint, TimeInterval(convoy.start, spanning.end)
                    )
                    update_maximal(next_open, merged)
                    if joint == convoy.objects:
                        continued_fully = True
            if not continued_fully:
                update_maximal(closed, convoy)
        for spanning in window_convoys:
            update_maximal(next_open, spanning)
        open_convoys = next_open
    for convoy in open_convoys:
        update_maximal(closed, convoy)
    return closed
