package service

import (
	"bytes"
	"encoding/json"
	"net/http"

	"pinnedloads/internal/simrun"
)

// A done job's reply, written and read without reflection over its result.

// writeStatus writes a job's status as writeJSON would: the bytes
// json.Encoder writes. A done job's reply is appended by hand around its
// result's own codec (simrun.Output.AppendJSON), with only the spec left to
// encoding/json; any other status goes through writeJSON.
func (s *Server) writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	if st.State != StateDone || st.Result == nil || st.Error != "" || !hexID(st.ID) {
		s.writeJSON(w, code, st)
		return
	}
	// Room for a 1-core result's reply. The spec is encoded in place, as
	// json.Marshal writes it but for the newline Encode ends it with.
	buf := bytes.NewBuffer(make([]byte, 0, 2048))
	buf.WriteString(`{"id":"`)
	buf.WriteString(st.ID)
	buf.WriteString(`","state":"done","spec":`)
	if err := json.NewEncoder(buf).Encode(st.Spec); err != nil {
		s.encodeFailed(w, err)
		return
	}
	b := buf.Bytes()
	b = b[:len(b)-1]
	if st.CacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	b = append(b, `,"result":`...)
	b, err := st.Result.AppendJSON(b)
	if err != nil {
		s.encodeFailed(w, err)
		return
	}
	writeBody(w, code, append(b, "}\n"...))
}

// hexID reports that id is a lowercase hex key, which encoding/json writes
// as it is.
func hexID(id string) bool {
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return id != ""
}

// DecodeRunReply reads a reply as json.Unmarshal reads it into a JobStatus,
// but for the echoed spec, which client.Run does not need. A done reply as
// writeStatus writes it takes one scan: the spec is passed over by matching
// brackets outside strings, not checked further, and the result goes to its
// own codec. Any other reply goes to encoding/json, spec and all.
func DecodeRunReply(data []byte) (JobStatus, error) {
	var st JobStatus
	var id, state, result []byte
	rest, ok := bytes.CutPrefix(data, []byte(`{"id":"`))
	if ok {
		id, rest, ok = cutString(rest)
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`,"state":"`))
	}
	if ok {
		state, rest, ok = cutString(rest)
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`,"spec":`))
	}
	if ok {
		rest, ok = skipObject(rest)
	}
	if ok {
		rest, st.CacheHit = bytes.CutPrefix(rest, []byte(`,"cache_hit":true`))
		rest, ok = bytes.CutPrefix(rest, []byte(`,"result":`))
	}
	if ok {
		// The result is the last member: what is left but the closing '}'
		// and the newline json.Encoder ends a reply with.
		result, ok = bytes.CutSuffix(bytes.TrimSuffix(rest, []byte("\n")), []byte("}"))
	}
	if ok && len(result) > 0 && result[0] == '{' {
		st.Result = new(simrun.Output)
		if st.Result.UnmarshalJSON(result) == nil {
			st.ID, st.State = string(id), State(state)
			return st, nil
		}
	}
	st = JobStatus{}
	err := json.Unmarshal(data, &st)
	return st, err
}

// cutString splits s after the string it starts inside of, which must hold
// only printable ASCII without escapes.
func cutString(s []byte) (str, rest []byte, ok bool) {
	for i, c := range s {
		switch {
		case c == '"':
			return s[:i], s[i+1:], true
		case c < ' ' || c >= 0x80 || c == '\\':
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// skipObject returns what follows the object s starts with, matching
// brackets outside strings.
func skipObject(s []byte) ([]byte, bool) {
	if len(s) == 0 || s[0] != '{' {
		return nil, false
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return s[i+1:], true
			}
		}
	}
	return nil, false
}
