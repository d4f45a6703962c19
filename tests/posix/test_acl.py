"""POSIX.1e ACL semantics: classic bits, extended entries, mask, chmod."""

import pytest
from hypothesis import given, strategies as st

from repro.posix import Acl, Credentials, R_OK, W_OK, X_OK, check_perm, perm_str
from repro.posix.errors import InvalidArgument


OWNER = Credentials(uid=100, gid=100)
GROUPMATE = Credentials(uid=101, gid=100)
STRANGER = Credentials(uid=200, gid=200)
ROOT = Credentials(uid=0, gid=0)


class TestMinimalAcl:
    def test_from_mode_roundtrip(self):
        acl = Acl.from_mode(0o754)
        assert acl.user_obj == 7
        assert acl.group_obj == 5
        assert acl.other == 4
        assert acl.to_mode_bits() == 0o754

    def test_owner_uses_user_obj(self):
        acl = Acl.from_mode(0o400)
        assert acl.check(OWNER, R_OK, 100, 100)
        assert not acl.check(OWNER, W_OK, 100, 100)

    def test_owner_denied_even_if_group_grants(self):
        # POSIX: the first matching class decides; owner never falls through.
        acl = Acl.from_mode(0o070)
        assert not acl.check(OWNER, R_OK, 100, 100)
        assert acl.check(GROUPMATE, R_OK, 100, 100)

    def test_group_member_uses_group_obj(self):
        acl = Acl.from_mode(0o740)
        assert acl.check(GROUPMATE, R_OK, 100, 100)
        assert not acl.check(GROUPMATE, W_OK, 100, 100)

    def test_supplementary_groups_count(self):
        creds = Credentials(uid=300, gid=300, groups=(100,))
        acl = Acl.from_mode(0o040)
        assert acl.check(creds, R_OK, 100, 100)

    def test_other_for_strangers(self):
        acl = Acl.from_mode(0o664)
        assert acl.check(STRANGER, R_OK, 100, 100)
        assert not acl.check(STRANGER, W_OK, 100, 100)

    def test_group_denial_does_not_fall_to_other(self):
        acl = Acl.from_mode(0o707)
        assert not acl.check(GROUPMATE, R_OK, 100, 100)


class TestRoot:
    def test_root_reads_writes_anything(self):
        acl = Acl.from_mode(0o000)
        assert acl.check(ROOT, R_OK | W_OK, 100, 100)

    def test_root_exec_needs_some_x_bit(self):
        assert not Acl.from_mode(0o600).check(ROOT, X_OK, 100, 100)
        assert Acl.from_mode(0o601).check(ROOT, X_OK, 100, 100)
        ext = Acl.from_mode(0o600)
        ext.set_user(42, X_OK)
        assert ext.check(ROOT, X_OK, 100, 100)


class TestExtendedEntries:
    def test_named_user_entry(self):
        acl = Acl.from_mode(0o700)
        acl.set_user(200, R_OK | W_OK)
        assert acl.check(STRANGER, R_OK | W_OK, 100, 100)

    def test_named_user_capped_by_mask(self):
        acl = Acl.from_mode(0o700)
        acl.set_user(200, R_OK | W_OK)
        acl.mask = R_OK
        assert acl.check(STRANGER, R_OK, 100, 100)
        assert not acl.check(STRANGER, W_OK, 100, 100)

    def test_mask_does_not_cap_owner(self):
        acl = Acl.from_mode(0o700)
        acl.set_user(200, R_OK)
        acl.mask = 0
        assert acl.check(OWNER, R_OK | W_OK | X_OK, 100, 100)

    def test_mask_does_not_cap_other(self):
        acl = Acl.from_mode(0o007)
        acl.set_user(300, 0)
        acl.mask = 0
        assert acl.check(STRANGER, R_OK | W_OK | X_OK, 100, 100)

    def test_named_group_entry(self):
        acl = Acl.from_mode(0o700)
        acl.set_group(200, R_OK)
        assert acl.check(STRANGER, R_OK, 100, 100)
        assert not acl.check(STRANGER, W_OK, 100, 100)

    def test_any_matching_group_entry_grants(self):
        creds = Credentials(uid=500, gid=10, groups=(20,))
        acl = Acl.from_mode(0o700)
        acl.set_group(10, R_OK)
        acl.set_group(20, W_OK)
        assert acl.check(creds, R_OK, 100, 100)
        assert acl.check(creds, W_OK, 100, 100)
        # But no single entry grants both at once: POSIX denies.
        assert not acl.check(creds, R_OK | W_OK, 100, 100)

    def test_named_user_wins_over_groups(self):
        acl = Acl.from_mode(0o770)
        acl.set_user(101, 0)  # explicitly deny groupmate by uid
        assert not acl.check(GROUPMATE, R_OK, 100, 100)

    def test_default_mask_is_union(self):
        acl = Acl.from_mode(0o740)
        acl.set_user(200, W_OK)
        assert acl.mask == (4 | 2)  # group_obj r + named w

    def test_extended_acl_mode_bits_show_mask(self):
        acl = Acl.from_mode(0o740)
        acl.set_user(200, 7)
        acl.mask = R_OK
        assert (acl.to_mode_bits() >> 3) & 7 == R_OK


class TestChmod:
    def test_chmod_minimal(self):
        acl = Acl.from_mode(0o777)
        acl.apply_chmod(0o640)
        assert acl.to_mode_bits() == 0o640
        assert acl.group_obj == 4

    def test_chmod_extended_touches_mask_not_group_obj(self):
        acl = Acl.from_mode(0o770)
        acl.set_user(200, 7)
        acl.apply_chmod(0o700)
        assert acl.mask == 0
        assert acl.group_obj == 7  # preserved under the mask
        assert not acl.check(STRANGER, R_OK, 100, 100)


class TestSerialization:
    def test_json_roundtrip(self):
        acl = Acl.from_mode(0o754)
        acl.set_user(42, R_OK | X_OK)
        acl.set_group(7, W_OK)
        acl.mask = 6
        back = Acl.from_json(acl.to_json())
        assert back == acl

    def test_text_form(self):
        acl = Acl.from_mode(0o754)
        acl.set_user(42, 5)
        text = acl.to_text()
        assert "user::rwx" in text
        assert "user:42:r-x" in text
        assert "group::r-x" in text
        assert "mask::" in text
        assert "other::r--" in text

    def test_minimal_text_has_no_mask(self):
        assert "mask" not in Acl.from_mode(0o644).to_text()

    def test_copy_is_independent(self):
        acl = Acl.from_mode(0o777)
        c = acl.copy()
        c.set_user(1, 7)
        assert not acl.named_users


class TestValidation:
    def test_bad_perm_rejected(self):
        with pytest.raises(InvalidArgument):
            Acl(user_obj=8, group_obj=0, other=0)
        acl = Acl.from_mode(0o777)
        with pytest.raises(InvalidArgument):
            acl.set_user(1, -1)


def test_check_perm_helper_uses_mode_when_no_acl():
    assert check_perm(None, 0o600, 100, 100, OWNER, R_OK)
    assert not check_perm(None, 0o600, 100, 100, STRANGER, R_OK)


def test_check_perm_mode_bits_match_minimal_acl_exhaustively():
    """The mode-bit fast path of ``check_perm`` (no ACL) decides exactly
    what the full acl(5) algorithm decides on ``Acl.from_mode(mode)``."""
    supplementary = Credentials(uid=102, gid=300, groups=(301, 100))
    who = [ROOT, OWNER, GROUPMATE, supplementary, STRANGER]
    for mode in range(0o1000):
        acl = Acl.from_mode(mode)
        for creds in who:
            for want in range(8):
                assert check_perm(None, mode, 100, 100, creds, want) == \
                    acl.check(creds, want, owner_uid=100, owner_gid=100), \
                    (oct(mode), creds, want)


def test_perm_str():
    assert perm_str(7) == "rwx"
    assert perm_str(5) == "r-x"
    assert perm_str(0) == "---"


# -- properties: the ACL algorithm agrees with classic mode-bit checks ---------

perm = st.integers(min_value=0, max_value=7)


@given(u=perm, g=perm, o=perm, want=st.integers(min_value=1, max_value=7))
def test_minimal_acl_matches_mode_bit_semantics(u, g, o, want):
    acl = Acl(user_obj=u, group_obj=g, other=o)
    assert acl.check(OWNER, want, 100, 100) == ((u & want) == want)
    assert acl.check(GROUPMATE, want, 100, 100) == ((g & want) == want)
    assert acl.check(STRANGER, want, 100, 100) == ((o & want) == want)


@given(u=perm, g=perm, o=perm,
       named=st.dictionaries(st.integers(200, 210), perm, max_size=4),
       mask=perm, want=st.integers(min_value=1, max_value=7))
def test_named_user_always_capped_by_mask(u, g, o, named, mask, want):
    acl = Acl(user_obj=u, group_obj=g, other=o, named_users=dict(named),
              mask=mask)
    for uid, p in named.items():
        creds = Credentials(uid=uid, gid=9999)
        assert acl.check(creds, want, 100, 100) == ((p & mask & want) == want)


@given(u=perm, g=perm, o=perm, want=st.integers(min_value=1, max_value=7))
def test_json_roundtrip_preserves_checks(u, g, o, want):
    acl = Acl(user_obj=u, group_obj=g, other=o)
    back = Acl.from_json(acl.to_json())
    for creds in (OWNER, GROUPMATE, STRANGER):
        assert back.check(creds, want, 100, 100) == acl.check(creds, want, 100, 100)
