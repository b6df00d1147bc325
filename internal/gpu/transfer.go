// Cross-device transfer modeling for partitioned plans (ROADMAP:
// cross-device graph partitioning). When one operator graph is cut
// across several pool devices, every cut buffer must travel from its
// producing device to its consuming device. The paper-era hardware has
// no direct link between cards, so the canonical route stages through
// host memory: a D2H on the source followed by an H2D on the
// destination, each charged to its own device's DMA engine. Newer parts
// advertise a peer route (cudaMemcpyPeer-class): one DMA over the
// device↔device link, taken only when both endpoints set
// Spec.PeerTransfer.
package gpu

// TransferRoute names how a cross-device copy travels.
type TransferRoute int

const (
	// RouteStaged copies device→host on the source, then host→device on
	// the destination; each endpoint charges its own DMA.
	RouteStaged TransferRoute = iota
	// RoutePeer copies device→device directly over the peer link; both
	// endpoints are busy for the single DMA's duration.
	RoutePeer
)

func (r TransferRoute) String() string {
	if r == RoutePeer {
		return "peer"
	}
	return "staged"
}

// TransferEngine models copies from one device spec to another. It is a
// pure cost model: the partitioned executor still moves real data
// through the host store (the staged route's semantics), while the
// engine prices each cut edge for the makespan join — peer pricing
// replaces the two staged legs when the hardware allows it.
type TransferEngine struct {
	Src, Dst Spec
	route    TransferRoute
}

// NewTransferEngine resolves the route between two specs: peer iff both
// endpoints advertise PeerTransfer, staged otherwise.
func NewTransferEngine(src, dst Spec) *TransferEngine {
	e := &TransferEngine{Src: src, Dst: dst, route: RouteStaged}
	if src.PeerTransfer && dst.PeerTransfer {
		e.route = RoutePeer
	}
	return e
}

// Route returns the resolved route.
func (e *TransferEngine) Route() TransferRoute { return e.route }

// peerBandwidth resolves the effective peer link speed: the slower of
// the two endpoints' advertised PeerBandwidth (each defaulting to its
// own H2DBandwidth).
func (e *TransferEngine) peerBandwidth() float64 {
	src, dst := e.Src.PeerBandwidth, e.Dst.PeerBandwidth
	if src == 0 {
		src = e.Src.H2DBandwidth
	}
	if dst == 0 {
		dst = e.Dst.H2DBandwidth
	}
	return min(src, dst)
}

// SrcSec returns the seconds the source device's DMA engine is busy
// moving floats across this edge.
func (e *TransferEngine) SrcSec(floats int64) float64 {
	if e.route == RoutePeer {
		return e.Duration(floats)
	}
	return e.Src.TransferLatency + float64(floats*4)/e.Src.D2HBandwidth
}

// DstSec returns the seconds the destination device's DMA engine is
// busy receiving floats across this edge.
func (e *TransferEngine) DstSec(floats int64) float64 {
	if e.route == RoutePeer {
		return e.Duration(floats)
	}
	return e.Dst.TransferLatency + float64(floats*4)/e.Dst.H2DBandwidth
}

// Duration returns the end-to-end modeled duration of one cut-buffer
// copy: both staged legs back to back, or the single peer DMA.
func (e *TransferEngine) Duration(floats int64) float64 {
	if e.route == RoutePeer {
		lat := max(e.Src.TransferLatency, e.Dst.TransferLatency)
		return lat + float64(floats*4)/e.peerBandwidth()
	}
	return e.SrcSec(floats) + e.DstSec(floats)
}
