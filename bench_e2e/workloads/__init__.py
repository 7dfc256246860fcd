"""The six workloads, by their fixed names."""

from bench_e2e.workloads.btree_chain import BtreeChain
from bench_e2e.workloads.cluster_ycsb import ClusterYcsb
from bench_e2e.workloads.lsm_compaction import LsmCompaction
from bench_e2e.workloads.plain_rw import PlainRw
from bench_e2e.workloads.tenants_qos import TenantsQos
from bench_e2e.workloads.verify_install import VerifyInstall

WORKLOADS = {cls.name: cls for cls in (BtreeChain, PlainRw, ClusterYcsb,
                                       TenantsQos, LsmCompaction,
                                       VerifyInstall)}

__all__ = ["WORKLOADS"]
