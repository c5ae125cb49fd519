"""Every located fault in one table. Each row is a call and the exact (type,
message, s) it must raise, under one CPU and under four: a fault is the same
whichever process summed its chunk, and no child process outlives it."""

import pytest

from conftest import assert_no_child_left
from qint import (DegenerateSliceError, DomainError, Line, Monomial, NamedFunction, PolyLine,
                  PowerSeries, QintError, Quaternion, SliceCircle, SliceEscapeError,
                  StepTooCoarseError, UnitImaginary, convergence_study, endpoint_reference,
                  integrate, integrate_slice_quadrature, integrate_with_branch_tracking,
                  verify_ftc_forward, verify_integration_by_parts)

EXP, LN, X, RECIPROCAL = (NamedFunction("exp"), NamedFunction("ln"), Monomial(1),
                          NamedFunction("reciprocal"))
DISK, GEOMETRIC = PowerSeries((1, 1), radius=1), PowerSeries((1.0,) * 30, radius=1.0)
HUGE = 1.7e308
STEPS = 32774  # even: the left rule evaluates at s = 1/2
OVERFLOW, SUM = "overflow (math range error)", "overflow (sum out of range)"
FSUM = "overflow (intermediate overflow in fsum)"
ON_AXIS = "evaluation point on the real axis for a non-entire function"
THROUGH_0 = "path passes through 0, where ln is singular"


def outside(z, radius=1):
    return f"|z| = {z} outside radius of convergence {radius}"


def off_plane(magnitude):
    return f"point leaves the slice plane (off-plane magnitude {magnitude})"


def jump(rad):
    return f"phase jump {rad} rad exceeds pi/2; increase steps"


def passes(x):
    return f"the path passes x = {x}, a pole or branch point of the function"


def line(a, b):
    """The segment from a to b, each given by its leading components."""
    return Line(Quaternion(*a), Quaternion(*b))


def poly(*points):
    return PolyLine(tuple(Quaternion(*p) for p in points))


def stair(F, path, rule="left", steps=STEPS):
    return lambda: integrate(F, path, steps, rule=rule)


def quadrature(F, path, steps):
    return lambda: integrate_slice_quadrature(F, path, steps)


def branch(path, steps=STEPS):
    return lambda: integrate_with_branch_tracking(LN, path, steps)


def by_parts(F, G, path, steps=10):
    return lambda: verify_integration_by_parts(F, G, path, steps)


FAR = line((700, 1), (720, 1))  # exp's terms overflow from w ~ 709.8 on, at s ~ 0.49
OUTSIDE = line((0, 0.5), (2, 0.5))  # |z| passes 1 at s ~ 0.43
AXIS = line((0.25, -0.5), (0.25, 0.5))  # the node at s = 1/2 is on the real axis
THROUGH = line((0, -1), (0, 1))  # through 0 at s = 1/2
TO_2J = line((0, 0.5), (0, 0, 2))  # off the real axis throughout; |z| reaches 2 at the end
# out of the disk in segment 2 of 8 and again in segment 6, in chunks that any process may claim
TWICE = poly(*[(0, .5), (.3, .4, .2), (0, .5), (0, 0, 1.5)] * 2, (0, .5))
# every term is finite, but the running total x_n - x_0 passes the largest double at s ~ 0.53
TOTAL = poly((-HUGE, 1), (0, 1), (HUGE, 1))

FAULTS = {
    # a geometric series' disk left at the end: the study's reference, then integrate's node
    "study_outside_the_disk": (lambda: convergence_study(GEOMETRIC, TO_2J, [100, 200, 400]),
                               DomainError, outside(2.0, 1.0), 1.0),
    "integrate_outside_the_disk": (stair(GEOMETRIC, TO_2J, steps=100),
                                   DomainError, outside(1.0126327073524735, 1.0), 0.49),
    # a node on the real axis is rejected for a non-entire function
    "axis_node": (stair(RECIPROCAL, AXIS, steps=100), DegenerateSliceError, ON_AXIS, 0.5),
    # the quadrature samples only near the ends, so it sees the axis only there
    "quadrature_axis_start": (quadrature(RECIPROCAL, line((0.25,), (0.25, 0.5)), 100),
                              DegenerateSliceError, ON_AXIS, 0.0),
    # a kernel failure names its evaluation s
    "kernel_overflow": (stair(EXP, FAR, steps=10), DomainError, OVERFLOW, 0.5),
    "kernel_outside_the_disk": (stair(DISK, OUTSIDE, steps=10),
                                DomainError, outside(1.118033988749895), 0.5),
    # samples at s = 0, 0.1, 0.2, 0.8, 0.9, 1: a fault from s = 0.5 on meets s = 0.8 first
    "quadrature_overflow": (quadrature(EXP, FAR, 10), DomainError, OVERFLOW, 0.8),
    "quadrature_outside_the_disk": (quadrature(DISK, OUTSIDE, 10),
                                    DomainError, outside(1.6763054614240211), 0.8),
    # every sample is finite; in the end stencil at s = 0, 4 g(0.1) = 1.6 peak is not
    "quadrature_stencil_centre": (quadrature(X, poly((0, 1), (1.5e308, 1), (0, 1), (0, 1), (0, 1)),
                                             10), DomainError, SUM, 0.0),
    # one step is the pair of samples; their difference is past the largest double
    "quadrature_one_step": (quadrature(X, line((-HUGE, 1), (HUGE, 1)), 1), DomainError, FSUM, 1.0),
    # the last sample, coords(49 * (1/49)), is w = 710 (1 - 2**-53); exp overflows there
    "quadrature_last_sample": (quadrature(EXP, line((0, 1), (710, 1)), 49),
                               DomainError, OVERFLOW, 1.0),
    # faults at a path's ends, outside any staircase
    "reference_start": (lambda: endpoint_reference(EXP, line((710, 1), (0, 1))),
                        DomainError, OVERFLOW, 0.0),
    "reference_end": (lambda: endpoint_reference(EXP, line((0, 1), (710, 1))),
                      DomainError, OVERFLOW, 1.0),
    "reference_start_outside_the_disk": (lambda: endpoint_reference(DISK, line((2, 1), (0, 0.1))),
                                         DomainError, outside(2.23606797749979), 0.0),
    "reference_end_outside_the_disk": (lambda: endpoint_reference(DISK, line((0, 0.1), (2, 1))),
                                       DomainError, outside(2.23606797749979), 1.0),
    # both ends are finite, their difference is not
    "reference_difference": (lambda: endpoint_reference(X, line((-HUGE, 1), (HUGE, 1))),
                             DomainError, "overflow (endpoint difference out of range)", 1.0),
    # past s = 0.5 each chord moves x2 by ~4.9e6, so a term is ~4.9e6 exp(w):
    # term 4055 of 4096, at w ~ 694.5, is the first non-finite one
    "past_the_first_chunk": (stair(EXP, poly((0, 1), (1, 1), (709, 1, 1e10)), steps=4096),
                             DomainError, "overflow (-inf + inf in fsum)", 4055 / 4096),
    # ln's evaluation point at s = 1/16, step 513 of 8192, mid-chunk, is on the real axis
    "ln_on_the_axis_mid_chunk": (stair(LN, line((1, -1), (1, 15)), steps=8192),
                                 DegenerateSliceError, ON_AXIS, 0.0625),
    # past the first 4096 steps, in a chunk any process may claim; each triple
    # is also the one a lone process's chunk-by-chunk fold raises
    "term_left": (stair(EXP, FAR), DomainError, OVERFLOW, 0.4977726246414841),
    "term_midpoint": (stair(EXP, FAR, "midpoint"), DomainError, OVERFLOW, 0.4977878806370904),
    "disk_left": (stair(DISK, OUTSIDE),
                  DomainError, outside(1.0000233436258612), 0.4330261792884604),
    "disk_midpoint": (stair(DISK, OUTSIDE, "midpoint"),
                      DomainError, outside(1.0000497681073366), 0.43304143528406663),
    "axis_left": (stair(RECIPROCAL, AXIS), DegenerateSliceError, ON_AXIS, 0.5),
    "total_left": (stair(X, TOTAL), DomainError, FSUM, 0.5311222310367975),
    "total_midpoint": (stair(X, TOTAL, "midpoint"), DomainError, FSUM, 0.5311374870324037),
    # the first of the two is reported
    "twice_left": (stair(DISK, TWICE),
                   DomainError, outside(1.0002891997370706), 0.332123024348569),
    "twice_midpoint": (stair(DISK, TWICE, "midpoint"),
                       DomainError, outside(1.0001193060894056), 0.3321077683529627),
    # branch tracking names its step's left end; a path through 0 there
    "branch_first_point": (branch(line((0,), (1, 1)), 10), DomainError, THROUGH_0, 0.0),
    "branch_through_zero": (branch(THROUGH, 100), DomainError, THROUGH_0, 0.5),
    # every step's t = dz/z is finite; |z| at the last point is not. The point
    # is coords(steps * (1/steps)), 1 - 2**-53 at 49 steps, but the end is s = 1
    "branch_last_point": (branch(line((1, 1), (HUGE, HUGE)), 49),
                          DomainError, "overflow (absolute value too large)", 1.0),
    # the term (z - z_prev) / z_prev leaving 5e-324 at s = 0.5 overflows
    "branch_overflow_past_the_first_chunk": (branch(poly((1,), (5e-324,), (1,)), 4096),
                                             DomainError, SUM, 0.5),
    "branch_leaves_the_slice_plane": (branch(line((1, 1), (1, 0, 1)), 100),
                                      SliceEscapeError, off_plane("1.000e-02"), 0.01),
    # the point at s = 0.01 is 1e-8 off the i-slice, past SLICE_REJECTION_TOL; a bound
    # ten times looser would name a later s, and one a thousand times looser none
    "branch_a_hair_off_the_plane": (branch(line((1, 1), (1, 1, 1e-6)), 100),
                                    SliceEscapeError, off_plane("1.000e-08"), 0.01),
    # three steps around a loop are too coarse
    "branch_coarse_loop": (branch(SliceCircle(0.0, 1.0, UnitImaginary(Quaternion(0, 1)), 1.0), 3),
                           StepTooCoarseError, jump(2.094), 0.0),
    # a phase jump of ~pi on the step [0, 0.5], named by its left end, then a
    # slice escape at s = 1: the first fault along the path is reported
    "branch_first_fault": (branch(poly((1, 0.1), (-1, 0.1), (-1, 0, 1)), 2),
                           StepTooCoarseError, jump(2.942), 0.0),
    # past the first 4096 steps: the second segment turns out of the i-slice at
    # s = 1/2; the second segment passes 1e-9 above 0, so one step turns by about pi
    "branch_slice": (branch(poly((1, 0.5), (2, 0.5), (2, 0.5, 1))),
                     SliceEscapeError, off_plane("6.102e-05"), 0.5000305119912125),
    "branch_coarse": (branch(poly((2, 1), (1, 1e-9), (-1, 1e-9))),
                      StepTooCoarseError, jump(3.142), 0.7499847440043937),
    "branch_zero": (branch(THROUGH), DomainError, THROUGH_0, 0.5),
    # the forward FTC check's path leaves the disk
    "ftc_forward_outside_the_disk": (lambda: verify_ftc_forward(
        PowerSeries((1.0,) * 25, radius=1.0), TO_2J, [100, 200, 400]),
        DomainError, outside(2.0, 1.0), 1.0),
    # by-parts names the node at fault
    "by_parts_term": (by_parts(EXP, EXP, FAR), DomainError, OVERFLOW, 0.5),
    # every value is finite; from the node w = 355 on, exp(w) * exp(w) is not
    "by_parts_product": (by_parts(EXP, EXP, line((350, 1), (360, 1))), DomainError, SUM, 0.5),
    # the walk stops at the last left node, w = 709; exp(710) at the end overflows
    "by_parts_end": (by_parts(EXP, PowerSeries((1.0,)), line((700, 1), (710, 1))),
                     DomainError, OVERFLOW, 1.0),
    # the walk's terms stay finite up to the last left node, w = 354; the
    # boundary term F G at the end, exp(355)^2, does not
    "by_parts_boundary": (by_parts(EXP, EXP, line((345, 1), (355, 1))), DomainError, SUM, 1.0),
    # exp(w) exp(w) overflows from the node w ~ 354.9 on, at s ~ 0.6, in chunk 20
    # of 32, which the second of three children sums
    "by_parts_past_the_first_chunk": (by_parts(EXP, EXP, line((340, 1), (365, 1)), 32768),
                                      DomainError, FSUM, 0.624969482421875),
    # as in integrate, a pole or branch point of a non-entire F or G on the path
    # is rejected before any step, and so is a node of either on the real axis
    "by_parts_pole": (by_parts(RECIPROCAL, EXP, line((1, -1), (1, 1)), 3001),
                      DomainError, passes(1), 0.5),
    "by_parts_branch_point": (by_parts(LN, X, THROUGH, 3001), DomainError, passes(0), 0.5),
    "by_parts_axis_node_of_F": (by_parts(RECIPROCAL, EXP, AXIS, 100),
                                DegenerateSliceError, ON_AXIS, 0.5),
    "by_parts_axis_node_of_G": (by_parts(EXP, RECIPROCAL, AXIS, 100),
                                DegenerateSliceError, ON_AXIS, 0.5),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_fault_names_its_type_message_and_s(fault, cpus):
    call, *want = FAULTS[fault]
    for k in (1, 4):
        cpus(k)
        with pytest.raises(QintError) as exc:
            call()
        assert [type(exc.value), str(exc.value), exc.value.s_param] == want
        assert_no_child_left()
