package ax25

// Verdict is the link layer's judgement of one received byte string,
// shared by every receiver of the radio transmission that carried it
// (DESIGN.md §3c): read-only, with Body and Frame.Info aliasing the
// bytes.
type Verdict struct {
	OK    bool   // intact, and the trailing FCS matches
	Body  []byte // the bytes without their FCS
	Frame *Frame // Body decoded; nil unless OK and Body parses
	in    []byte // the exact bytes judged
}

var lost = &Verdict{} // every damaged reception's verdict

// Judge returns the verdict on the received bytes b. A damaged
// reception fails without reading memo: damage is one receiver's, the
// bytes are everyone's. memo is the slot the radio hands all receivers
// of one transmission: the first caller fills it, and callers holding
// the very same bytes read it back, so the FCS and the decode run once
// per transmission. A caller holding other bytes (a MAC unwrapped them
// differently) gets its own verdict and leaves the slot alone.
func Judge(memo *any, b []byte, damaged bool) *Verdict {
	if damaged {
		return lost
	}
	if v, ok := (*memo).(*Verdict); ok && len(v.in) == len(b) && (len(b) == 0 || &v.in[0] == &b[0]) {
		return v
	}
	v := &Verdict{in: b}
	if v.Body, v.OK = CheckFCS(b); v.OK {
		v.Frame, _ = Decode(v.Body)
	}
	if *memo == nil {
		*memo = v
	}
	return v
}
