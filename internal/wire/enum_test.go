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

// The response body tag that carried incremental-checkpoint frames is
// retired but reserved: later tags keep their bytes, so query and event
// responses stay readable across versions, and a frame still carrying the
// retired tag is rejected instead of misread.
func TestRetiredBodyTagReserved(t *testing.T) {
	if bodyEpochRaw != 7 || bodyQuery != 9 || bodyEvent != 10 {
		t.Fatalf("body tags moved: epochraw=%d query=%d event=%d", bodyEpochRaw, bodyQuery, bodyEvent)
	}
	frame := append(make([]byte, 8), byte(StatusOK), bodyEpochRaw+1)
	if _, err := DecodeResponse(frame); err == nil {
		t.Fatal("response with the retired body tag decoded")
	}
}
