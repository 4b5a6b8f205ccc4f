package core

// BenchmarkWireCodec isolates the codec from the pipeline: one encode +
// decode round trip per message type, with allocs reported. Run with
//
//	go test ./internal/core -bench BenchmarkWireCodec -benchmem

import "testing"

func BenchmarkWireCodec(b *testing.B) {
	req := testRequests()[1]
	lm := testLeaderMsgs()[1]
	mm := testMultiMsg()
	wp := testWatchPayloads()[1]
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			roundTripReq(b, req)
		}
	})
	b.Run("leadermsg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			roundTripLM(b, lm)
		}
	})
	b.Run("multimsg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			roundTripLM(b, mm)
		}
	})
	b.Run("watch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeWatchPayload(wp.encode()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
