"""``scripts/loc.py``'s counting of added, deleted and moved lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "loc.py"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a function body moves from one file to another, re-indented; one
# deleted line ("-- a line like a header") only looks like a header
MOVE = """\
diff --git a/src/pkg/a.py b/src/pkg/a.py
index 1111111..2222222 100644
--- a/src/pkg/a.py
+++ b/src/pkg/a.py
@@ -3,6 +3,0 @@ def keep():
-def state(peers):
-    return {
-        "processed": [p.n for p in peers],
-    }
-
--- a line like a header
@@ -20 +14 @@ def other():
-    x = 1
+    x = 2
diff --git a/src/pkg/b.py b/src/pkg/b.py
index 3333333..4444444 100644
--- a/src/pkg/b.py
+++ b/src/pkg/b.py
@@ -9,0 +10,5 @@ class System:
+    @property
+    def state(self):
+        return {
+            "processed": [p.n for p in self.peers],
+        }
"""

# a new file, a deleted file, and a line present in both that moves once
NEW_AND_GONE = """\
diff --git a/src/pkg/old.py b/src/pkg/old.py
deleted file mode 100644
index 5555555..0000000
--- a/src/pkg/old.py
+++ /dev/null
@@ -1,3 +0,0 @@
-import os
-import os
-
diff --git a/src/pkg/new.py b/src/pkg/new.py
new file mode 100644
index 0000000..6666666
--- /dev/null
+++ b/src/pkg/new.py
@@ -0,0 +1,2 @@
+import os
+print(os.sep)
\\ No newline at end of file
"""


def test_counts_added_deleted_and_moved_lines():
    loc = load_loc()
    assert loc.count_lines(MOVE) == {
        "src/pkg/a.py": [1, 7, 2],  # "return {" and "}" moved; the
        "src/pkg/b.py": [5, 0, 0],  # "processed" line changed text
    }
    assert loc.count_lines(NEW_AND_GONE) == {
        "src/pkg/old.py": [0, 3, 1],
        "src/pkg/new.py": [2, 0, 0],
    }
    assert loc.render(loc.count_lines(NEW_AND_GONE)).splitlines()[-1] == (
        "      2       3       1      -1  total"
    )
