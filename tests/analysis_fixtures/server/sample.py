"""DUR-004 fixture: container deletes ahead of the commit that unreferences them.

Lives in a directory named ``server/`` so it falls inside the durability
checker's scope.  Parsed (never imported) by tests/test_analysis_checkers.py.
"""


class Server:
    def collect_garbage_delete_first(self, rewritten):
        # The order collect_garbage had before it was fixed: the old
        # containers go, then the re-pack that stops naming them commits.
        self.containers.flush()
        for container_id in rewritten:
            self.cloud.backend.delete_object(container_id)  # TRUE-POSITIVE: delete before commit
        self._commit_durable()

    def collect_garbage(self, rewritten):
        self.containers.flush()
        self._commit_durable()
        for container_id in rewritten:
            self.cloud.backend.delete_object(container_id)

    def drop_scratch(self, key):
        # A scratch object no index entry ever names.
        self.cloud.backend.delete_object(key)  # analysis: ignore[DUR-004] -- unindexed scratch object
