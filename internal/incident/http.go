package incident

import (
	"net/http"

	"github.com/kfrida1/csdinf/internal/telemetry"
)

// HTTPHandler serves the incident history as JSON — the /incidents.json
// endpoint of the telemetry server. The document is:
//
//	{"total": N, "open": n, "incidents": [...]}
//
// where total counts incidents ever opened (including ones dropped from the
// bounded closed ring), open counts the open incidents, and incidents is
// Snapshot's order: closed first, then open. All three come from one
// locked read of the recorder. Query parameter ?state=open or ?state=closed
// filters the list (not the counts). A nil recorder serves a valid empty
// document.
func (r *Recorder) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		state := req.URL.Query().Get("state")
		if state != "" && state != "open" && state != "closed" {
			http.Error(w, "state must be open or closed", http.StatusBadRequest)
			return
		}
		var total int64
		var incidents []Incident
		if r != nil {
			r.mu.Lock()
			total, incidents = r.opened, r.snapshotLocked()
			r.mu.Unlock()
		}
		open := 0
		kept := []Incident{}
		for _, inc := range incidents {
			if inc.State == "open" {
				open++
			}
			if state == "" || inc.State == state {
				kept = append(kept, inc)
			}
		}
		telemetry.ServeJSON(w, http.StatusOK, struct {
			Total     int64      `json:"total"`
			Open      int        `json:"open"`
			Incidents []Incident `json:"incidents"`
		}{Total: total, Open: open, Incidents: kept})
	})
}
