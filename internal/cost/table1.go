package cost

// Table 1's per-layer totals, each the sum of the per-operation charges
// in cost.go. No code path charges a total: the layers' Table 1 tests
// compare what a meter read against them.
const (
	ProtoATMRecvTotal = ProtoATMHeaderLoad + ProtoATMSeqCheck + ProtoATMVCILookup + ProtoATMHandoff        // 36
	ProtoATMSendFixed = ProtoATMHeaderBuild + ProtoATMSeqStamp + ProtoATMRouteLookup + ProtoATMLenWalkBase // 58
	PFXunetRecvFixed  = PFXunetPCBIndex + PFXunetStateChecks + PFXunetAddrFixup + PFXunetSbAppend          // 99
	RouterSwitchTotal = RouterDecapChecks + RouterVCILookup + RouterReEncap                                // 39
)
