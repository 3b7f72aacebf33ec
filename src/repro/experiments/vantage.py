"""Vantage points (§3.3 / §7).

Eleven clients inside China across nine cities and three providers —
six on Aliyun, three on QCloud, two on China Unicom home networks
(Shijiazhuang and Tianjin) — each carrying its provider's middlebox
profile from Table 2.  Four more sit outside China (US, UK, Germany,
Japan; EC2) for the inbound-direction measurements of Table 4.

§7.3 found Tor connections from four vantage points in three northern
cities (Beijing, Zhangjiakou, Qingdao) unfiltered — those paths simply
do not traverse Tor-fingerprinting devices, encoded here as
``tor_filtered=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.middlebox.profiles import MiddleboxProfile, PROVIDER_PROFILES


@dataclass(frozen=True)
class VantagePoint:
    """One measurement client."""

    name: str
    city: str
    isp: str
    provider_profile: str  # key into PROVIDER_PROFILES
    ip: str
    inside_china: bool = True
    #: Paths from here traverse Tor-fingerprinting GFW devices (§7.3).
    tor_filtered: bool = True

    @property
    def middleboxes(self) -> MiddleboxProfile:
        return PROVIDER_PROFILES[self.provider_profile]


#: The 11 in-China vantage points (§3.3): 9 cities, 3 ISPs.
CHINA_VANTAGE_POINTS: List[VantagePoint] = [
    VantagePoint("aliyun-beijing", "Beijing", "Aliyun", "aliyun",
                 "42.120.1.10", tor_filtered=False),
    VantagePoint("aliyun-shanghai", "Shanghai", "Aliyun", "aliyun",
                 "42.120.2.10"),
    VantagePoint("aliyun-guangzhou", "Guangzhou", "Aliyun", "aliyun",
                 "42.120.3.10"),
    VantagePoint("aliyun-shenzhen", "Shenzhen", "Aliyun", "aliyun",
                 "42.120.4.10"),
    VantagePoint("aliyun-hangzhou", "Hangzhou", "Aliyun", "aliyun",
                 "42.120.5.10"),
    VantagePoint("aliyun-zhangjiakou", "Zhangjiakou", "Aliyun", "aliyun",
                 "42.120.6.10", tor_filtered=False),
    VantagePoint("qcloud-qingdao", "Qingdao", "QCloud", "qcloud",
                 "119.29.1.10", tor_filtered=False),
    VantagePoint("qcloud-beijing", "Beijing", "QCloud", "qcloud",
                 "119.29.2.10", tor_filtered=False),
    VantagePoint("qcloud-guangzhou", "Guangzhou", "QCloud", "qcloud",
                 "119.29.3.10"),
    VantagePoint("unicom-shijiazhuang", "Shijiazhuang", "China Unicom",
                 "unicom-sjz", "101.28.1.10"),
    VantagePoint("unicom-tianjin", "Tianjin", "China Unicom",
                 "unicom-tj", "101.30.1.10"),
]

#: The 4 outside-China vantage points (§7: Amazon EC2).
OUTSIDE_VANTAGE_POINTS: List[VantagePoint] = [
    VantagePoint("ec2-us", "N. Virginia", "AWS", "transparent",
                 "54.85.1.10", inside_china=False),
    VantagePoint("ec2-uk", "London", "AWS", "transparent",
                 "18.130.1.10", inside_china=False),
    VantagePoint("ec2-de", "Frankfurt", "AWS", "transparent",
                 "18.185.1.10", inside_china=False),
    VantagePoint("ec2-jp", "Tokyo", "AWS", "transparent",
                 "13.112.1.10", inside_china=False),
]

ALL_VANTAGE_POINTS = CHINA_VANTAGE_POINTS + OUTSIDE_VANTAGE_POINTS


def vantage_by_name(name: str) -> VantagePoint:
    for vantage in ALL_VANTAGE_POINTS:
        if vantage.name == name:
            return vantage
    raise KeyError(f"unknown vantage point {name!r}")


def tor_unfiltered_points() -> List[VantagePoint]:
    """The northern-China vantage points whose Tor traffic flows free."""
    return [v for v in CHINA_VANTAGE_POINTS if not v.tor_filtered]

