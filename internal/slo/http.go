package slo

import (
	"net/http"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// HTTPHandler serves the evaluator's current judgment as JSON on GET and
// HEAD — mount it at /slo.json beside /metrics and /incidents.json. Each
// request runs a full Evaluate pass, so alert edges are detected even when
// no load-generator tick is driving evaluation; the edge-triggered
// transition logic makes the extra passes idempotent.
func (e *Evaluator) HTTPHandler() http.Handler {
	return telemetry.JSONHandler(func() any { return e.Evaluate() })
}
