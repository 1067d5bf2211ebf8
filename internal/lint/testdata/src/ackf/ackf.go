// Package ackf exercises the ackafterfsync analyzer: acknowledgements
// (close of a future, //conn:ack calls) must lexically follow the first
// //conn:fsync-barrier call, and an annotated function must contain one.
package ackf

// appendAndSync is the durability barrier.
//
//conn:fsync-barrier
func appendAndSync() {}

// notify acknowledges an operation to a subscriber.
//
//conn:ack
func notify() {}

//conn:ack-after-fsync
func commitBad(done chan struct{}) {
	close(done) // want "resolves a future .close. before the //conn:fsync-barrier call"
	appendAndSync()
}

//conn:ack-after-fsync
func teeBad() {
	notify() // want "calls //conn:ack notify before the //conn:fsync-barrier call"
	appendAndSync()
}

//conn:ack-after-fsync
func noBarrier(done chan struct{}) { // want "contains no //conn:fsync-barrier call"
	_ = done
}

// commitGood is the compliant twin: barrier first, then ack, then resolve.
//
//conn:ack-after-fsync
func commitGood(done chan struct{}) {
	appendAndSync()
	notify()
	close(done)
}
