import csvcheck

REFERENCE = """# experiment = stability_probe
row,N,ratio,n,energy,outcome
data,40,4.0,0,0.0012345678901234,
summary,40,4.0,30,,diverged
"""

# A diverged series: the mode carries almost none of the energy at n=1
# and nearly all of it at n=3.  The completed series gets RTOL throughout.
DIVERGED = """row,N,ratio,n,energy,outcome
data,40,2.0,0,0.0015,
data,40,2.0,1,200.0,
data,40,4.0,0,0.0015,
data,40,4.0,1,0.0015000001,
data,40,4.0,2,0.002,
data,40,4.0,3,200.0,
summary,40,2.0,1,,completed
summary,40,4.0,3,,diverged
"""


def test_identical_and_backend_level_differences_pass():
    assert csvcheck.mismatches(REFERENCE, REFERENCE) == []
    shifted = REFERENCE.replace("0.0012345678901234", repr(0.0012345678901234 * (1 + 1e-11)))
    assert shifted != REFERENCE
    assert csvcheck.mismatches(shifted, REFERENCE) == []


def test_perturbed_float_is_rejected():
    perturbed = REFERENCE.replace("0.0012345678901234", "0.0012346")
    assert csvcheck.mismatches(perturbed, REFERENCE)


def test_changed_verdict_and_step_count_are_rejected():
    assert csvcheck.mismatches(REFERENCE.replace("diverged", "completed"), REFERENCE)
    assert csvcheck.mismatches(REFERENCE.replace(",30,", ",31,"), REFERENCE)


def test_structure_changes_are_rejected():
    assert csvcheck.mismatches(REFERENCE + "summary,40,8.0,3,,diverged\n", REFERENCE)
    assert csvcheck.mismatches(REFERENCE.replace("# experiment", "# experiments"), REFERENCE)


def test_failed_status_rows_are_found():
    text = "row,status\ndata,ok\ndata,failed: saddle solve residual 1e-3, tol 1e-10\n"
    assert csvcheck.failed_rows(text) == [text.splitlines()[2]]


def test_grown_mode_rows_get_a_tolerance_scaled_by_its_share():
    # 1e-3 relative on the energy the mode carries: passes.
    assert csvcheck.mismatches(DIVERGED.replace(",200.0,\ns", ",200.2,\ns"), DIVERGED) == []
    # The same change in a completed series, a pre-onset row, or 5 % on
    # the grown mode (a changed growth rate) is rejected.
    assert csvcheck.mismatches(DIVERGED.replace("2.0,1,200.0", "2.0,1,200.2"), DIVERGED)
    assert csvcheck.mismatches(DIVERGED.replace("0.0015000001", "0.0015000101"), DIVERGED)
    assert csvcheck.mismatches(DIVERGED.replace(",200.0,\ns", ",210.0,\ns"), DIVERGED)
