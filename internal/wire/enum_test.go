package wire

import (
	"testing"

	"repro/internal/pubsub"
	"repro/internal/query"
)

// The wire package is dependency-free, so it mirrors the query and pubsub
// enum bounds as constants; this pins the mirrors to the real enums.
func TestEnumBoundsMatchPackages(t *testing.T) {
	if maxQueryKind != uint8(query.KindAggregate) {
		t.Fatalf("maxQueryKind = %d, query.KindAggregate = %d", maxQueryKind, query.KindAggregate)
	}
	if maxEventKind != uint8(pubsub.KindGap) {
		t.Fatalf("maxEventKind = %d, pubsub.KindGap = %d", maxEventKind, pubsub.KindGap)
	}
}

// The response body tags that carried decoded epoch frames (byte 6) and
// incremental-checkpoint frames (byte 8) are retired but reserved: later
// tags keep their bytes, so epochraw, query and event responses stay
// readable across versions, and a frame still carrying a retired tag is
// rejected instead of misread.
func TestRetiredBodyTagReserved(t *testing.T) {
	if bodyEpochRaw != 7 || bodyQuery != 9 || bodyEvent != 10 {
		t.Fatalf("body tags moved: epochraw=%d query=%d event=%d", bodyEpochRaw, bodyQuery, bodyEvent)
	}
	for _, frame := range [][]byte{
		// Tag 6 followed by a body the old epoch decoder accepted: seq 4,
		// no inserts, no deletes.
		append(append(make([]byte, 8), byte(StatusOK), bodyEpochRaw-1), make([]byte, 8+4+4)...),
		append(make([]byte, 8), byte(StatusOK), bodyEpochRaw+1),
	} {
		if _, err := DecodeResponse(frame); err == nil {
			t.Fatalf("response with retired body tag %d decoded", frame[9])
		}
	}
}
