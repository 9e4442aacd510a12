package quality

import (
	"net/http"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// Handler serves the scorecard snapshot as the /quality.json document on
// GET and HEAD. Mount it via telemetry.HTTPOptions.Extra. A nil scorecard
// serves the zeroed (never null) document, matching the zero-state
// convention of /spans.json and /incidents.json.
func (s *Scorecard) Handler() http.Handler {
	return telemetry.JSONHandler(func() any { return s.Snapshot() })
}
