package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"autopipe"
)

// A finished job is its bytes. It is frozen once — by finish when it
// ran here, by restore when a replayed record stream rebuilt it — into
// the payload of its completed journal record. That one encoding then
// serves the journal and OnRecord, every GET, compaction, Adopt's
// re-journal and fleet resync; none of them marshals the job again,
// and nothing modifies the bytes after the freeze, so they are shared
// without copying. Get decodes them.

// frozen is a finished job.
type frozen struct {
	// rec is the completed record's payload, {"id":…,"info":<view>}:
	// byte-identical to json.Marshal(completedRec{…}).
	rec []byte
	// view is the presented JobInfo, the subslice of rec after "info".
	view []byte
	sum  summary
}

// summary is what the registry reads of a job without decoding its
// view: the state, and the per-job numbers /metrics exports.
type summary struct {
	state      autopipe.JobState
	iteration  int
	throughput float64
	ctl        autopipe.ControllerStats
}

func summarize(info *JobInfo) summary {
	st := &info.Status
	return summary{state: st.State, iteration: st.Iteration, throughput: st.Throughput, ctl: st.Controller}
}

// decode returns the frozen view as a JobInfo.
func (f *frozen) decode() JobInfo {
	var info JobInfo
	// The view was encoded from a JobInfo, so it decodes.
	_ = json.Unmarshal(f.view, &info)
	return info
}

// infoKey separates the id from the view in a completed payload. A
// quote inside a JSON string is always escaped, so its first unescaped
// occurrence is the field boundary.
var infoKey = []byte(`,"info":`)

// freeze encodes a finished job's view under its job id. A view that
// cannot be encoded — a non-finite number somewhere in its status or
// result — freezes as a failed view naming the error, so every finished
// job has bytes; ok is false then, and the caller counts the failure.
func freeze(id string, info JobInfo) (f *frozen, ok bool) {
	rec, err := json.Marshal(completedRec{ID: id, Info: info})
	if err != nil {
		info = JobInfo{
			ID: info.ID, Created: info.Created, Spec: info.Spec, Node: info.Node, Fence: info.Fence,
			Status: autopipe.JobStatus{
				State: autopipe.JobFailed, Iteration: info.Status.Iteration, Batches: info.Status.Batches,
				Error: fmt.Sprintf("freeze: %v", err),
			},
		}
		// Left are plain fields and the spec, whose encoding admission
		// (or the replayed submission) already holds, so this encodes.
		rec, _ = json.Marshal(completedRec{ID: id, Info: info})
	}
	at := bytes.Index(rec, infoKey) + len(infoKey)
	return &frozen{rec: rec, view: rec[at : len(rec)-1], sum: summarize(&info)}, err == nil
}

// restore freezes a job rebuilt from its replayed completed record,
// presented where it now lives: on this node when the registry has a
// node id, at the fence it was rebuilt with.
func (r *Registry) restore(id string, info JobInfo, fence uint64) *frozen {
	if r.opts.NodeID != "" {
		info.Node = r.opts.NodeID
	}
	info.Fence = fence
	f, _ := freeze(id, info) // decoded from JSON, so every number is finite
	return f
}
