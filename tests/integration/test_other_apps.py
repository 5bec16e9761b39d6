"""Integration tests: file managers, admissions, login library, upload apps."""

import pytest

from repro.apps.admissions import AdmissionsSystem
from repro.apps.filemanager import FileThingie, PHPNavigator
from repro.apps.loginlib import LoginLibrary
from repro.apps.scriptapps import UploadApp
from repro.core.exceptions import (AccessDenied, DisclosureViolation,
                                   InjectionViolation,
                                   ScriptInjectionViolation)
from repro.core.request_context import RequestContext
from repro.environment import Environment


class TestFileManagers:
    @pytest.mark.parametrize("cls,payload", [
        (FileThingie, "docs/../../alice/owned.txt"),
        (PHPNavigator, "....//alice/owned.txt"),
    ])
    def test_traversal_blocked_with_assertion(self, cls, payload):
        fm = cls(Environment(), use_resin=True)
        fm.create_account("alice")
        fm.create_account("mallory")
        with pytest.raises(AccessDenied):
            fm.save_file("mallory", payload, "owned")
        assert not fm.env.fs.exists(fm.home_dir("alice") + "/owned.txt")

    @pytest.mark.parametrize("cls,payload", [
        (FileThingie, "docs/../../alice/owned.txt"),
        (PHPNavigator, "....//alice/owned.txt"),
    ])
    def test_traversal_succeeds_without_assertion(self, cls, payload):
        fm = cls(Environment(), use_resin=False)
        fm.create_account("alice")
        fm.create_account("mallory")
        fm.save_file("mallory", payload, "owned")
        assert fm.env.fs.exists(fm.home_dir("alice") + "/owned.txt")

    @pytest.mark.parametrize("cls", [FileThingie, PHPNavigator])
    def test_normal_usage_unaffected(self, cls):
        fm = cls(Environment(), use_resin=True)
        fm.create_account("alice")
        fm.save_file("alice", "docs/notes.txt", "my notes")
        assert str(fm.read_file("alice", "docs/notes.txt")) == "my notes"
        assert fm.list_files("alice") == ["docs"]

    def test_refused_write_restores_the_request_user(self):
        # save_file writes as mallory and is refused; the request that made
        # the call keeps its own user for the file operations after it.
        fm = FileThingie(Environment(), use_resin=True)
        fm.create_account("alice")
        fm.create_account("mallory")
        with RequestContext(env=fm.env, user="admin"):
            with pytest.raises(AccessDenied):
                fm.save_file("mallory", "docs/../../alice/owned.txt", "owned")
            assert fm.env.fs.request_context == {"user": "admin"}

    def test_anonymous_writes_rejected(self):
        fm = FileThingie(Environment(), use_resin=True)
        with pytest.raises(AccessDenied):
            fm.save_file(None, "x.txt", "data")

    def test_absolute_path_rejected_by_app(self):
        from repro.core.exceptions import HTTPError
        fm = FileThingie(Environment(), use_resin=True)
        fm.create_account("alice")
        with pytest.raises(HTTPError):
            fm.save_file("alice", "/etc/passwd", "x")


class TestAdmissions:
    @pytest.fixture
    def protected(self):
        app = AdmissionsSystem(Environment(), use_resin=True)
        app.add_applicant(1, "Alice", "systems", 780, notes="strong")
        app.add_applicant(2, "Bob", "theory", 650, notes="confidential")
        return app

    def test_injections_blocked(self, protected):
        with pytest.raises(InjectionViolation):
            protected.filter_by_area("x' OR '1'='1")
        with pytest.raises(InjectionViolation):
            protected.lookup_applicant("0 OR 1=1")
        with pytest.raises(InjectionViolation):
            protected.update_decision(1, "x' WHERE applicant_id = 2 --")

    def test_legitimate_queries_work(self, protected):
        assert len(protected.search_by_name("Alice")) == 1
        assert len(protected.filter_by_area("systems")) == 1
        assert len(protected.lookup_applicant("2")) == 1
        assert protected.update_decision(1, "admit") == 1
        assert any(str(r["decision"]) == "admit"
                   for r in protected.decisions())

    def test_unprotected_app_is_injectable(self):
        app = AdmissionsSystem(Environment(), use_resin=False)
        app.add_applicant(1, "Alice", "systems", 780)
        app.add_applicant(2, "Bob", "theory", 650)
        assert len(app.filter_by_area("x' OR '1'='1")) == 2
        assert len(app.lookup_applicant("0 OR 1=1")) == 2


class TestLoginLibrary:
    def test_password_file_not_served(self):
        lib = LoginLibrary(Environment(), use_resin=True)
        lib.register("victim", "victim-secret")
        with pytest.raises(DisclosureViolation):
            lib.http_get("/site/loginlib/users.txt")

    def test_authentication_still_works(self):
        lib = LoginLibrary(Environment(), use_resin=True)
        lib.register("victim", "victim-secret")
        lib.register("other", "pw2")
        assert lib.authenticate("victim", "victim-secret")
        assert not lib.authenticate("victim", "wrong")
        assert not lib.authenticate("nobody", "x")

    def test_unprotected_library_leaks(self):
        lib = LoginLibrary(Environment(), use_resin=False)
        lib.register("victim", "victim-secret")
        assert "victim-secret" in lib.http_get(
            "/site/loginlib/users.txt").body()

    def test_other_static_files_still_served(self):
        lib = LoginLibrary(Environment(), use_resin=True)
        lib.env.fs.write_text("/www/site/index.html", "<h1>welcome</h1>")
        assert "welcome" in lib.http_get("/site/index.html").body()


class TestScriptInjection:
    def test_uploaded_code_not_executed(self):
        app = UploadApp("gallery", Environment(), use_resin=True)
        app.upload("mallory", "evil.php", "globals_dict['pwned'] = True")
        with pytest.raises(ScriptInjectionViolation):
            app.http_get("/gallery/uploads/evil.php")
        assert not app.env.interpreter.globals.get("pwned")

    def test_approved_code_still_runs(self):
        app = UploadApp("gallery", Environment(), use_resin=True)
        app.run_index()

    def test_eval_path_also_blocked(self):
        app = UploadApp("gallery", Environment(), use_resin=True)
        uploaded = app.upload("mallory", "evil.php",
                              "globals_dict['pwned'] = True")
        source = app.env.fs.read_text(uploaded)
        with pytest.raises(ScriptInjectionViolation):
            app.env.interpreter.execute_source(source, origin=uploaded)

    def test_unprotected_app_executes_upload(self):
        app = UploadApp("gallery", Environment(), use_resin=False)
        app.upload("mallory", "evil.php", "globals_dict['pwned'] = True")
        app.http_get("/gallery/uploads/evil.php")
        assert app.env.interpreter.globals.get("pwned") is True

    def test_upload_restores_the_request_user(self):
        app = UploadApp("gallery", Environment(), use_resin=True)
        with RequestContext(env=app.env, user="admin"):
            app.upload("mallory", "photo.txt", "just text")
            assert app.env.fs.request_context == {"user": "admin"}

    def test_non_script_uploads_served_as_static(self):
        app = UploadApp("gallery", Environment(), use_resin=True)
        app.upload("alice", "photo.txt", "just text")
        assert "just text" in app.http_get(
            "/gallery/uploads/photo.txt").body()
