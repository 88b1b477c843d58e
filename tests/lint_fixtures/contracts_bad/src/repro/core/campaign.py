"""Drifted fixture: _trial_identity() shadows a TrialCache.key() field."""


class Campaign:
    def _trial_identity(self):
        return {
            "space": self._space_hash(),
            "seed": 0,  # collides with TrialCache.key()'s own "seed" field
        }
